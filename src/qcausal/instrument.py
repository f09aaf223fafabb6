"""Quantum instruments: measurement operators, outcome probabilities, branches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .exceptions import (
    DegenerateMeasurement,
    IncompleteInstrument,
    InvalidInput,
    NumericalInstability,
)
from .qstate import DensityMatrix, check_array, check_instance, check_sites, partial_trace_matrix

COMPLETENESS_TOL = 1e-10
IMAGINARY_TOL = 1e-12
# Branches below this probability are dropped and the rest renormalized,
# so the branch-state division never sees 0/0.
PROBABILITY_FLOOR = 1e-12


@dataclass(frozen=True)
class Instrument:
    """Measurement operators {M_x} acting on a designated target subsystem.

    Construction checks shapes only; completeness is checked where outcomes
    are produced, so that deliberately broken instruments can still be fed to
    `validate_instrument`.
    """

    target_sites: tuple[int, ...]
    operators: tuple[np.ndarray, ...]
    name: str = "instrument"

    def __post_init__(self):
        targets = check_sites(self.target_sites)
        dim = 2 ** len(targets)
        ops = check_array(self.operators, "operators", complex, (None, dim, dim)).copy()
        if not len(ops):
            raise InvalidInput("instrument needs at least one measurement operator")
        ops.setflags(write=False)
        object.__setattr__(self, "target_sites", targets)
        object.__setattr__(self, "operators", tuple(ops))

    @property
    def describe(self) -> str:
        sites = ",".join(str(s) for s in self.target_sites)
        return f"{self.name}[sites={sites}]"


@dataclass(frozen=True)
class Branch:
    probability: float
    label: int
    state: DensityMatrix


@dataclass(frozen=True)
class BranchEnsemble:
    """Post-measurement outcomes: probabilities summing to one plus states."""

    branches: tuple[Branch, ...] = field(default_factory=tuple)

    def __iter__(self) -> Iterator[Branch]:
        return iter(self.branches)

    def __len__(self) -> int:
        return len(self.branches)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([b.probability for b in self.branches])


def projective_z_instrument(site: int, n_sites: int) -> Instrument:
    """Projectors |0><0|, |1><1| on one site of an n_sites chain (`check_sites` rule)."""
    targets = check_sites((site,), n_sites)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return Instrument(targets, (p0, p1), name="projective-z")


def validate_instrument(instrument: Instrument) -> float:
    """Max-abs deviation of sum_x M_x^dagger M_x from the identity."""
    operators = check_instance(instrument, Instrument, "instrument").operators
    dim = operators[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for op in operators:
        total += op.conj().T @ op
    return float(np.max(np.abs(total - np.eye(dim))))


def _sandwich(matrix: np.ndarray, op: np.ndarray, sites: Sequence[int], n_sites: int) -> np.ndarray:
    """(M x I) rho (M^dagger x I) applied on the target axes directly."""
    k = len(sites)
    op_tensor = op.reshape([2] * (2 * k))
    in_axes = list(range(k, 2 * k))
    tensor = matrix.reshape([2] * (2 * n_sites))

    row_axes = list(sites)
    tensor = np.tensordot(op_tensor, tensor, axes=(in_axes, row_axes))
    tensor = np.moveaxis(tensor, range(k), row_axes)

    col_axes = [n_sites + s for s in sites]
    tensor = np.tensordot(op_tensor.conj(), tensor, axes=(in_axes, col_axes))
    tensor = np.moveaxis(tensor, range(k), col_axes)

    dim = 2**n_sites
    return tensor.reshape(dim, dim)


def apply_instrument(rho: DensityMatrix, instrument: Instrument) -> BranchEnsemble:
    """Outcome probabilities and normalized post-measurement states.

    Outcomes whose probability falls below `PROBABILITY_FLOOR` are dropped
    and the kept probabilities renormalized to sum to one; if none is kept,
    `DegenerateMeasurement` is raised. Each branch state lives on the
    non-target sites, in site order: the target is traced out.
    """
    n = check_instance(rho, DensityMatrix, "rho").n_sites
    targets = check_sites(check_instance(instrument, Instrument, "instrument").target_sites, n)
    defect = validate_instrument(instrument)
    if not defect <= COMPLETENESS_TOL:
        raise IncompleteInstrument(f"completeness defect {defect:.3e} exceeds {COMPLETENESS_TOL}")

    keep = [s for s in range(n) if s not in targets]
    if not keep:
        raise InvalidInput(
            "instrument covers the whole register; nothing remains after tracing the target"
        )
    raw = []
    for label, op in enumerate(instrument.operators):
        hit = _sandwich(rho.matrix, op, targets, n)
        trace = complex(np.trace(hit))
        if not abs(trace.imag) <= IMAGINARY_TOL:
            raise NumericalInstability(f"outcome probability has imaginary part {trace.imag:.3e}")
        raw.append((trace.real, label, hit))

    surviving = [(p, label, hit) for p, label, hit in raw if p >= PROBABILITY_FLOOR]
    if not surviving:
        raise DegenerateMeasurement("every outcome fell below the probability floor")

    total = sum(p for p, _, _ in surviving)
    branches = []
    for p, label, hit in surviving:
        state = DensityMatrix(len(keep), partial_trace_matrix(hit, n, keep) / p)
        branches.append(Branch(probability=p / total, label=label, state=state))
    return BranchEnsemble(tuple(branches))
