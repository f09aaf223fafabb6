import math

import numpy as np
import pytest

from qcausal import (
    ChainModel,
    Hamiltonian,
    InvalidInput,
    PAULI_X,
    PAULI_Z,
    commutator_front_norm,
    dispersion,
    lr_velocity,
    max_group_velocity,
    xx_group_velocity,
)


class TestLrVelocity:
    def test_unit_coupling_value(self):
        est = lr_velocity(ChainModel("xx", 8, 1.0, 0.3))
        assert abs(est.v_lr - 4.0 * math.e) < 1e-12
        assert abs(est.v_lr - 10.8731) < 1e-4

    def test_free_chain_is_zero(self):
        est = lr_velocity(ChainModel("xx", 4, 0.0, 0.0))
        assert est.g == est.g_prop == est.v_lr == 0.0

    def test_field_enters_g_but_not_v(self):
        est = lr_velocity(ChainModel("xx", 4, 0.5, 2.0))
        assert abs(est.g - 3.0) < 1e-12
        assert abs(est.g_prop - 1.0) < 1e-12
        assert abs(est.v_lr - 2.0 * math.e) < 1e-12

    def test_state_independent_by_signature(self):
        # Depends on (J, h) only; the same numbers come out for both models.
        a = lr_velocity(ChainModel("xx", 4, 1.2, 0.4))
        b = lr_velocity(ChainModel("tfim", 9, 1.2, 0.4))
        assert a == b


class TestGroupVelocity:
    def test_unit_coupling(self):
        assert xx_group_velocity(1.0) == 2.0

    def test_zero_coupling(self):
        assert xx_group_velocity(0.0) == 0.0

    def test_sign_independent(self):
        assert xx_group_velocity(-1.5) == 3.0

    def test_always_below_light_cone_bound(self):
        for j in (-2.0, -0.3, 0.7, 1.0, 5.0):
            v0 = xx_group_velocity(j)
            v_lr = lr_velocity(ChainModel("xx", 4, j, 0.0)).v_lr
            assert v0 < v_lr


class TestMaxGroupVelocity:
    def test_xx_is_the_free_fermion_speed(self):
        for j in (-1.5, 0.0, 1.0):
            model = ChainModel("xx", 6, j, 0.3)
            assert max_group_velocity(model) == xx_group_velocity(j)

    def test_tfim_is_limited_by_the_weaker_of_coupling_and_field(self):
        assert max_group_velocity(ChainModel("tfim", 8, 1.0, 0.5)) == 1.0
        assert max_group_velocity(ChainModel("tfim", 8, -0.5, 3.0)) == 1.0
        assert max_group_velocity(ChainModel("tfim", 8, 1.0, 0.0)) == 0.0

    @pytest.mark.parametrize("j, h", [(1.0, 0.5), (0.7, 1.3), (1.0, 1.0)])
    def test_tfim_is_the_fastest_slope_of_its_dispersion(self, j, h):
        # Finite-difference oracle on eps(k) = 2 sqrt(J^2 + h^2 - 2Jh cos k).
        k = np.linspace(-math.pi, math.pi, 20001)
        energy = 2.0 * np.sqrt(j * j + h * h - 2.0 * j * h * np.cos(k))
        fastest = np.max(np.abs(np.diff(energy) / np.diff(k)))
        assert abs(fastest - max_group_velocity(ChainModel("tfim", 8, j, h))) <= 1e-3

    def test_model_required(self):
        with pytest.raises(InvalidInput):
            max_group_velocity(1.0)


class TestDispersion:
    def test_band_center(self):
        point = dispersion(0.0, 1.0)
        assert point.energy == 2.0 and point.velocity == 0.0

    def test_fastest_mode(self):
        point = dispersion(math.pi / 2, 1.0)
        assert abs(point.energy) < 1e-12
        assert abs(point.velocity + 2.0) < 1e-12
        assert abs(abs(point.velocity) - xx_group_velocity(1.0)) < 1e-12

    def test_velocity_is_energy_derivative(self):
        # Finite-difference oracle.
        delta = 1e-4
        for k in np.linspace(-3.0, 3.0, 13):
            numeric = (dispersion(k + delta, 1.3).energy - dispersion(k - delta, 1.3).energy) / (
                2 * delta
            )
            assert abs(dispersion(float(k), 1.3).velocity - numeric) <= 1e-6

    def test_momentum_range_enforced(self):
        with pytest.raises(InvalidInput):
            dispersion(3.5, 1.0)


@pytest.fixture(scope="module")
def chain():
    return Hamiltonian(ChainModel("xx", 8, 1.0, 0.3))


class TestCommutatorFrontNorm:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, chain, bad):
        op = np.array([[1.0, 0.0], [0.0, bad]])
        for op_a, op_b in ((op, PAULI_Z), (PAULI_Z, op)):
            with pytest.raises(InvalidInput):
                commutator_front_norm(chain, 0, op_a, 7, op_b, 0.5)

    def test_zero_time_commutes(self, chain):
        assert commutator_front_norm(chain, 0, PAULI_Z, 7, PAULI_Z, 0.0) < 1e-12

    def test_triangle_inequality_bound(self, chain):
        for t in (0.2, 1.0, 3.0):
            norm = commutator_front_norm(chain, 0, PAULI_Z, 7, PAULI_Z, t)
            assert norm <= 2.0 + 1e-9

    def test_front_grows_with_time_at_long_distance(self, chain):
        early = commutator_front_norm(chain, 0, PAULI_Z, 7, PAULI_Z, 0.2)
        late = commutator_front_norm(chain, 0, PAULI_Z, 7, PAULI_Z, 3.0)
        assert early < late

    def test_distance_suppression_at_fixed_time(self, chain):
        near = commutator_front_norm(chain, 0, PAULI_Z, 2, PAULI_Z, 0.3)
        far = commutator_front_norm(chain, 0, PAULI_Z, 7, PAULI_Z, 0.3)
        assert far <= near

    def test_zero_at_t0_for_any_field(self):
        for h in (0.0, 0.5, 2.0):
            chain = Hamiltonian(ChainModel("xx", 4, 1.0, h))
            assert commutator_front_norm(chain, 0, PAULI_X, 3, PAULI_Z, 0.0) < 1e-12

    def test_coincident_sites_rejected(self, chain):
        with pytest.raises(InvalidInput):
            commutator_front_norm(chain, 3, PAULI_Z, 3, PAULI_Z, 1.0)


def xx_hopping_propagator(n, coupling, field, time):
    """U = exp(-iMt) of the single-particle hopping matrix M that the XX chain
    maps onto (Jordan-Wigner): M_{k,k+1} = J, M_kk = -2h."""
    hopping = np.diag(np.full(n, -2.0 * field))
    hopping += np.diag(np.full(n - 1, coupling), 1) + np.diag(np.full(n - 1, coupling), -1)
    energies, modes = np.linalg.eigh(hopping)
    return (modes * np.exp(-1j * energies * time)) @ modes.T


class TestXxZzFrontClosedForm:
    """The spectrum -> propagator path against free fermions:
    ||[sz_0(t), sz_b]|| = 4 |U_b0| sqrt(1 - |U_b0|^2)."""

    @pytest.mark.parametrize("h", [0.0, 0.3, -0.7])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_front_matches_the_single_particle_propagator(self, n, h):
        chain = Hamiltonian(ChainModel("xx", n, 1.0, h))
        for t in (0.3, 1.1, 2.6):
            amplitude = np.abs(xx_hopping_propagator(n, 1.0, h, t)[:, 0])
            for b in range(1, n):
                closed = 4.0 * amplitude[b] * math.sqrt(max(0.0, 1.0 - amplitude[b] ** 2))
                norm = commutator_front_norm(chain, 0, PAULI_Z, b, PAULI_Z, t)
                assert abs(norm - closed) <= 1e-12
