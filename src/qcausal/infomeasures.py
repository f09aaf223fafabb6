"""Quantum mutual information and the symmetric/asymmetric conditional forms.

The symmetric conditional mutual information is the four-entropy combination
S(AC) + S(BC) - S(C) - S(ABC) and cannot tell A->B from B->A. The asymmetric
variant measures A with a quantum instrument first and averages the B:C
mutual information over the outcome branches, which is what makes it usable
as a directional causal index. All values are in bits. Site sets and split
points follow the input rules of `qstate` (`check_sites`, `check_integer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import EmptyConditioner, InvalidInput, NumericalInstability
from .instrument import Instrument, apply_instrument
from .qstate import DensityMatrix, check_instance, check_integer, check_sites, partial_trace
from .qstate import check_sequence, von_neumann_entropy

# Strong subadditivity guarantees non-negativity analytically; anything in
# (-NEGATIVITY_TOL, 0) is rounding and is clamped, anything below is a bug.
NEGATIVITY_TOL = 1e-9


def _clamped_values(values: np.ndarray) -> np.ndarray:
    """Information values with rounding negatives set to 0; NaN or a real negative raises."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericalInstability("information measure is not finite")
    lowest = float(values.min())
    if lowest < -NEGATIVITY_TOL:
        raise NumericalInstability(f"information measure {lowest:.3e} below -{NEGATIVITY_TOL}")
    return np.where(values > 0.0, values, 0.0)


def _clamped(value: float) -> float:
    return float(_clamped_values(value))


@dataclass(frozen=True)
class Partition:
    """Disjoint, non-empty site sets (A, B, C): sender, receiver and the
    conditioning sites. An empty C raises `EmptyConditioner`: neither
    conditional form is defined without it (`mutual_information` is)."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        a, b, c = check_sites(self.a), check_sites(self.b), check_sequence(self.c, "C")
        if not c:
            raise EmptyConditioner(
                f"C is empty: no intermediate sites between A={a} and B={b}; distances start at 2"
            )
        c = check_sites(c)
        combined = a + b + c
        if len(set(combined)) != len(combined):
            raise InvalidInput(f"A, B, C must be pairwise disjoint, got {a}, {b}, {c}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(sorted(self.a + self.b + self.c))


def mutual_information(rho: DensityMatrix, n_first: int) -> float:
    """I(first block : rest) for a state laid out as [block, rest]."""
    check_instance(rho, DensityMatrix, "rho")
    n_first = check_integer(n_first, "split point")
    if not 1 <= n_first < rho.n_sites:
        raise InvalidInput(
            f"split point must lie strictly inside the register, got {n_first} of {rho.n_sites}"
        )
    return mutual_information_sites(rho, range(n_first), range(n_first, rho.n_sites))


def mutual_information_sites(
    rho: DensityMatrix, sites_b: Sequence[int], sites_c: Sequence[int]
) -> float:
    """I(B:C) for two disjoint site sets of `rho`, each by the `check_sites` rule."""
    check_instance(rho, DensityMatrix, "rho")
    sites_b, sites_c = check_sites(sites_b), check_sites(sites_c)
    if set(sites_b) & set(sites_c):
        raise InvalidInput(f"B and C must be disjoint, got {sites_b}, {sites_c}")
    joint = tuple(sorted(sites_b + sites_c))
    rho_bc = partial_trace(rho, joint)
    b_local = tuple(i for i, s in enumerate(joint) if s in sites_b)
    c_local = tuple(i for i, s in enumerate(joint) if s in sites_c)
    s_b = von_neumann_entropy(partial_trace(rho_bc, b_local))
    s_c = von_neumann_entropy(partial_trace(rho_bc, c_local))
    return _clamped(s_b + s_c - von_neumann_entropy(rho_bc))


def symmetric_qcmi(rho: DensityMatrix, partition: Partition) -> float:
    """S(AC) + S(BC) - S(C) - S(ABC), the direction-blind conditional form."""
    check_instance(rho, DensityMatrix, "rho")
    check_instance(partition, Partition, "partition")
    check_sites(partition.sites, rho.n_sites)
    s_ac = von_neumann_entropy(partial_trace(rho, sorted(partition.a + partition.c)))
    s_bc = von_neumann_entropy(partial_trace(rho, sorted(partition.b + partition.c)))
    s_c = von_neumann_entropy(partial_trace(rho, partition.c))
    s_abc = von_neumann_entropy(partial_trace(rho, partition.sites))
    return _clamped(s_ac + s_bc - s_c - s_abc)


def asymmetric_qcmi(rho: DensityMatrix, partition: Partition, instrument: Instrument) -> float:
    """Measure A, then average I(B:C) over the outcome branches.

    The value depends on the chosen instrument, so callers that persist
    results should record ``instrument.describe`` next to it.
    """
    check_instance(rho, DensityMatrix, "rho")
    check_instance(partition, Partition, "partition")
    check_instance(instrument, Instrument, "instrument")
    if tuple(instrument.target_sites) != partition.a:
        raise InvalidInput(
            f"instrument targets {instrument.target_sites} but A is {partition.a}"
        )
    check_sites(partition.sites, rho.n_sites)

    branches = apply_instrument(rho, instrument)
    remaining = [s for s in range(rho.n_sites) if s not in partition.a]
    local = {site: i for i, site in enumerate(remaining)}
    b_local = tuple(local[s] for s in partition.b)
    c_local = tuple(local[s] for s in partition.c)

    # Each term is a non-negative weight times a clamped, finite I(B:C).
    total = 0.0
    for branch in branches:
        total += branch.probability * mutual_information_sites(branch.state, b_local, c_local)
    return total
