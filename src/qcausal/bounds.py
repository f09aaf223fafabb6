"""Analytic propagation-speed bounds and a direct commutator-norm probe.

The conservative light-cone velocity comes from the per-site interaction
norms of the nearest-neighbor chain: each bond term has operator norm |J|,
a bulk site touches two bonds plus its on-site field, and only the bond
terms generate propagation, giving v_lr = 2e * 2|J| = 4e|J|. The XX chain
also has an exact single-particle dispersion 2J cos(k) whose group velocity
peaks at 2|J|, and the TFIM's fermion dispersion 2 sqrt(J^2 + h^2 - 2Jh cos(k))
has its fastest group velocity 2 min(|J|, |h|); that is the physical front
speed the measured effective velocity should approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput
from .qstate import check_instance, check_real, check_site_pair, embed_operator
from .spinchain import ChainModel, Hamiltonian, propagator


@dataclass(frozen=True)
class LrEstimate:
    """Interaction norms and the light-cone velocity they imply."""

    g: float        # total per-site interaction norm, 2|J| + |h|
    g_prop: float   # propagation-generating part, 2|J|
    v_lr: float     # 2e * g_prop


@dataclass(frozen=True)
class DispersionPoint:
    k: float
    energy: float
    velocity: float


def lr_velocity(model: ChainModel) -> LrEstimate:
    """Conservative light-cone velocity for a nearest-neighbor chain."""
    j = abs(check_instance(model, ChainModel, "model").coupling)
    h = abs(model.field)
    g_prop = 2.0 * j
    return LrEstimate(g=2.0 * j + h, g_prop=g_prop, v_lr=2.0 * math.e * g_prop)


def xx_group_velocity(coupling: float) -> float:
    """Maximum group speed 2|J| of the XX chain's free-fermion dispersion."""
    return 2.0 * abs(check_real(coupling, "coupling"))


def max_group_velocity(model: ChainModel) -> float:
    """Fastest quasiparticle speed of the chain's single-particle dispersion:
    2|J| for XX (2J cos k), 2 min(|J|, |h|) for TFIM (2 sqrt(J^2 + h^2 - 2Jh cos k))."""
    check_instance(model, ChainModel, "model")
    if model.kind == "xx":
        return xx_group_velocity(model.coupling)
    return 2.0 * min(abs(model.coupling), abs(model.field))


def dispersion(k: float, coupling: float) -> DispersionPoint:
    """Single-particle energy 2J cos(k) and group velocity -2J sin(k)."""
    coupling = check_real(coupling, "coupling")
    k = check_real(k, "quasi-momentum")
    if not -math.pi <= k <= math.pi:
        raise InvalidInput(f"quasi-momentum must lie in [-pi, pi], got {k!r}")
    return DispersionPoint(
        k=k,
        energy=2.0 * coupling * math.cos(k),
        velocity=-2.0 * coupling * math.sin(k),
    )


def commutator_front_norm(
    hamiltonian: Hamiltonian,
    site_a: int,
    op_a: np.ndarray,
    site_b: int,
    op_b: np.ndarray,
    time: float,
) -> float:
    """Spectral norm of [A(t), B] for single-site observables A, B.

    This is the exact left-hand side of the light-cone bound, evaluated
    densely: A(t) = U(t)^dagger A U(t) with U(t) = exp(-iHt).
    """
    n = check_instance(hamiltonian, Hamiltonian, "hamiltonian").n_sites
    site_a, site_b = check_site_pair(site_a, site_b, n)
    a_full = embed_operator(op_a, site_a, n)
    b_full = embed_operator(op_b, site_b, n)
    u = propagator(hamiltonian, time).matrix
    a_t = u.conj().T @ a_full @ u
    commutator = a_t @ b_full - b_full @ a_t
    return float(np.linalg.norm(commutator, 2))
