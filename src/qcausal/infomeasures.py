"""Quantum mutual information and the symmetric/asymmetric conditional forms.

The symmetric conditional mutual information is the four-entropy combination
S(AC) + S(BC) - S(C) - S(ABC) and cannot tell A->B from B->A. The asymmetric
variant measures A with a quantum instrument first and averages the B:C
mutual information over the outcome branches, which is what makes it usable
as a directional causal index. All values are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


from .exceptions import EmptyConditioner, InvalidInput, NumericalInstability
from .instrument import Instrument, apply_instrument
from .qstate import DensityMatrix, check_sites, partial_trace, von_neumann_entropy

# Strong subadditivity guarantees non-negativity analytically; anything in
# (-NEGATIVITY_TOL, 0) is rounding and is clamped, anything below is a bug.
NEGATIVITY_TOL = 1e-9


def _clamped(value: float) -> float:
    if value < -NEGATIVITY_TOL:
        raise NumericalInstability(f"information measure {value:.3e} below -{NEGATIVITY_TOL}")
    return value if value > 0.0 else 0.0


@dataclass(frozen=True)
class Partition:
    """Disjoint site sets (A, B, C); C may be empty, A and B may not."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...] = ()

    def __post_init__(self):
        a = check_sites(self.a, allow_empty=True)
        b = check_sites(self.b, allow_empty=True)
        c = check_sites(self.c, allow_empty=True)
        if not a or not b:
            raise InvalidInput("subsystems A and B must be non-empty")
        combined = a + b + c
        if len(set(combined)) != len(combined):
            raise InvalidInput(f"A, B, C must be pairwise disjoint, got {a}, {b}, {c}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(sorted(self.a + self.b + self.c))


def _check_within(partition: Partition, n_sites: int) -> None:
    if partition.sites and partition.sites[-1] >= n_sites:
        raise InvalidInput(
            f"partition uses site {partition.sites[-1]} outside a {n_sites}-site register"
        )


def mutual_information(rho: DensityMatrix, n_first: int) -> float:
    """I(first block : rest) for a state laid out as [block, rest]."""
    if not 1 <= n_first < rho.n_sites:
        raise InvalidInput(
            f"split point must lie strictly inside the register, got {n_first} of {rho.n_sites}"
        )
    s_first = von_neumann_entropy(partial_trace(rho, range(n_first)))
    s_rest = von_neumann_entropy(partial_trace(rho, range(n_first, rho.n_sites)))
    return _clamped(s_first + s_rest - von_neumann_entropy(rho))


def mutual_information_sites(
    rho: DensityMatrix, sites_b: Sequence[int], sites_c: Sequence[int]
) -> float:
    """I(B:C) for arbitrary disjoint site sets of `rho`."""
    sites_b = check_sites(sites_b, allow_empty=True)
    sites_c = check_sites(sites_c, allow_empty=True)
    if not sites_b or not sites_c:
        raise InvalidInput("both parts of the mutual information must be non-empty")
    if set(sites_b) & set(sites_c):
        raise InvalidInput(f"parts must be disjoint, got {sites_b} and {sites_c}")
    joint = tuple(sorted(sites_b + sites_c))
    rho_bc = partial_trace(rho, joint)
    b_local = tuple(i for i, s in enumerate(joint) if s in sites_b)
    c_local = tuple(i for i, s in enumerate(joint) if s in sites_c)
    s_b = von_neumann_entropy(partial_trace(rho_bc, b_local))
    s_c = von_neumann_entropy(partial_trace(rho_bc, c_local))
    return _clamped(s_b + s_c - von_neumann_entropy(rho_bc))


def symmetric_qcmi(rho: DensityMatrix, partition: Partition) -> float:
    """S(AC) + S(BC) - S(C) - S(ABC), the direction-blind conditional form."""
    if not partition.c:
        raise InvalidInput(
            "symmetric form needs a non-empty C; use mutual_information for I(A:B)"
        )
    _check_within(partition, rho.n_sites)
    s_ac = von_neumann_entropy(partial_trace(rho, sorted(partition.a + partition.c)))
    s_bc = von_neumann_entropy(partial_trace(rho, sorted(partition.b + partition.c)))
    s_c = von_neumann_entropy(partial_trace(rho, partition.c))
    s_abc = von_neumann_entropy(partial_trace(rho, partition.sites))
    return _clamped(s_ac + s_bc - s_c - s_abc)


def asymmetric_qcmi(
    rho: DensityMatrix,
    partition: Partition,
    instrument: Instrument,
    *,
    allow_empty_c: bool = False,
) -> float:
    """Measure A, then average I(B:C) over the outcome branches.

    The value depends on the chosen instrument, so callers that persist
    results should record ``instrument.describe`` next to it. With an empty
    C the average is ill-formed; ``allow_empty_c=True`` opts into the
    I(B:empty) == 0 convention used by distance sweeps.
    """
    if tuple(instrument.target_sites) != partition.a:
        raise InvalidInput(
            f"instrument targets {instrument.target_sites} but A is {partition.a}"
        )
    _check_within(partition, rho.n_sites)
    if not partition.c:
        if allow_empty_c:
            return 0.0
        raise EmptyConditioner("C is empty; pass allow_empty_c=True for the I==0 convention")

    ensemble = apply_instrument(rho, instrument)
    remaining = [s for s in range(rho.n_sites) if s not in partition.a]
    local = {site: i for i, site in enumerate(remaining)}
    b_local = tuple(local[s] for s in partition.b)
    c_local = tuple(local[s] for s in partition.c)

    total = 0.0
    for branch in ensemble:
        total += branch.probability * mutual_information_sites(branch.state, b_local, c_local)
    return _clamped(total)
