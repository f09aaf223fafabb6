"""Quantum instruments: measurement operators, outcome probabilities, branches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateMeasurement, IncompleteInstrument, InvalidInput
from .qstate import DensityMatrix, _grouped, check_array, check_instance, check_sites

COMPLETENESS_TOL = 1e-10
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
    """One kept outcome: its renormalized probability, its label (the index of
    its operator) and its state on the non-target sites."""

    probability: float
    label: int
    state: DensityMatrix


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


def apply_instrument(rho: DensityMatrix, instrument: Instrument) -> tuple[Branch, ...]:
    """One `Branch` per kept outcome, in label order: its probability and its
    normalized state on the non-target sites.

    Outcome x leaves Tr_A[(M_x^dagger M_x x I) rho], which equals Tr_A[(M_x x I)
    rho (M_x^dagger x I)] without forming the whole register. Its Hermitian
    part has trace p_x, and the branch state, on the non-target sites in site
    order, is that part over p_x: no rounding dust grows by 1/p_x.
    Outcomes below `PROBABILITY_FLOOR` are dropped and the rest renormalized to
    sum to one; if none is kept, `DegenerateMeasurement` is raised.
    """
    n = check_instance(rho, DensityMatrix, "rho").n_sites
    targets = check_sites(check_instance(instrument, Instrument, "instrument").target_sites, n)
    defect = validate_instrument(instrument)
    if not defect <= COMPLETENESS_TOL:
        raise IncompleteInstrument(f"completeness defect {defect:.3e} exceeds {COMPLETENESS_TOL}")
    if len(targets) == n:
        raise InvalidInput(
            "instrument covers the whole register; nothing remains after tracing the target"
        )

    tensor = _grouped(rho.matrix, n, targets)  # rho[(a, r), (c, s)], target sites a, c first
    surviving = []
    for label, op in enumerate(instrument.operators):
        reduced = np.einsum("ca,arcs->rs", op.conj().T @ op, tensor)
        reduced = 0.5 * (reduced + reduced.conj().T)
        p = float(np.trace(reduced).real)
        if p >= PROBABILITY_FLOOR:
            surviving.append((p, label, reduced))
    if not surviving:
        raise DegenerateMeasurement("every outcome fell below the probability floor")

    total = sum(p for p, _, _ in surviving)
    return tuple(
        Branch(p / total, label, DensityMatrix(n - len(targets), reduced / p))
        for p, label, reduced in surviving
    )
