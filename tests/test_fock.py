import numpy as np
import pytest

from ergodyn.fock import Ket, ModeSystem, flat_index, occupation_counts, superposition
from ergodyn.oracles import fock_ket, free_hamiltonian


def basis_order(sys_):
    """Every occupation tuple of the register, sorted by its flat index."""
    occupations = np.ndindex(*(c + 1 for c in sys_.cutoff))
    return sorted(occupations, key=lambda occ: flat_index(sys_, occ))


def test_basis_single_mode_enumeration():
    sys_ = ModeSystem((1.0,), (2,))
    assert basis_order(sys_) == [(0,), (1,), (2,)]


def test_basis_two_modes_row_major():
    sys_ = ModeSystem((1.0, 1.0), (1, 1))
    assert basis_order(sys_) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_basis_product_count_vacuum_first():
    sys_ = ModeSystem((1.0, 1.0), (3, 2))
    assert sys_.dimension == 12
    assert basis_order(sys_) == list(np.ndindex(4, 3))
    for k, occ in enumerate(np.ndindex(4, 3)):
        assert flat_index(sys_, occ) == k
    assert flat_index(sys_, (0, 0)) == 0


def test_free_hamiltonian_single_mode():
    sys_ = ModeSystem((1.0,), (2,))
    np.testing.assert_array_equal(free_hamiltonian(sys_), np.diag([0.0, 1.0, 2.0]))


def test_free_hamiltonian_two_modes():
    sys_ = ModeSystem((1.0, 2.0), (1, 1))
    np.testing.assert_allclose(
        free_hamiltonian(sys_), np.diag([0.0, 2.0, 1.0, 3.0])
    )


def test_free_hamiltonian_eigenvalue_is_weighted_occupation():
    sys_ = ModeSystem((1.3, 0.7), (3, 2))
    h = free_hamiltonian(sys_)
    for n in range(4):
        for m in range(3):
            v = fock_ket(sys_, (n, m)).amplitudes
            assert (v.conj() @ h @ v).real == pytest.approx(
                n * 1.3 + m * 0.7, abs=1e-12
            )


def test_fock_ket_out_of_range():
    sys_ = ModeSystem((1.0,), (2,))
    with pytest.raises(ValueError):
        fock_ket(sys_, (3,))
    with pytest.raises(ValueError):
        fock_ket(sys_, (0, 0))


def test_tensor_identity_and_hamiltonian_composition():
    # free Hamiltonians compose as H_a x 1 + 1 x H_b, the leading mode
    # first (row-major), for two and for three modes
    ha, hb = np.diag([0.0, 1.0]), np.diag([0.0, 2.0])
    total = np.kron(ha, np.eye(2)) + np.kron(np.eye(2), hb)
    np.testing.assert_array_equal(total, np.diag([0.0, 2.0, 1.0, 3.0]))
    np.testing.assert_array_equal(
        total, free_hamiltonian(ModeSystem((1.0, 2.0), (1, 1)))
    )
    sys_ = ModeSystem((0.5, 1.25, 3.0), (1, 2, 1))
    singles = [
        free_hamiltonian(ModeSystem((w,), (c,)))
        for w, c in zip(sys_.omega, sys_.cutoff)
    ]
    composed = 0.0
    for k, h in enumerate(singles):
        term = np.ones((1, 1))
        for i, other in enumerate(singles):
            term = np.kron(term, h if i == k else np.eye(len(other)))
        composed = composed + term
    np.testing.assert_array_equal(composed, free_hamiltonian(sys_))


def test_commuting_diagonals():
    sys_ = ModeSystem((1.1, 2.2), (2, 2))
    h = free_hamiltonian(sys_)
    n = np.diag(occupation_counts(sys_))
    np.testing.assert_array_equal(h @ n, n @ h)


def test_ket_normalization_and_zero_rejection():
    k = Ket([3.0, 4.0])
    np.testing.assert_allclose(np.linalg.norm(k.amplitudes), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        Ket([0.0, 0.0])


@pytest.mark.parametrize(
    "scaled, unit",
    [([1e300, 0.0], [1.0, 0.0]), ([1e154, 1e154], [1.0, 1.0]),
     ([1e-200, 1e-200], [1.0, 1.0]), ([1e-162, 1e-162], [1.0, 1.0]),
     ([5e-324j, 0.0], [1j, 0.0]), ([1.7e308 + 1.7e308j, 0.0], [1 + 1j, 0.0])],
)
def test_ket_normalizes_at_any_finite_scale(scaled, unit):
    # the squares inside the norm over- or underflow here; the state is
    # rescaled by its largest part first, which keeps its direction exactly
    assert np.array_equal(Ket(scaled).amplitudes, Ket(unit).amplitudes)



def test_superposition_places_terms_as_flat_index_does():
    sys_ = ModeSystem((1.0, 1.3, 1.7), (3, 2, 4))
    rng = np.random.default_rng(5)
    occupations = list(np.ndindex(4, 3, 5))
    picked = rng.choice(len(occupations), 9, replace=False)
    terms = {occupations[k]: complex(*rng.normal(size=2)) for k in picked}
    vec = np.zeros(sys_.dimension, dtype=complex)
    for occ, amp in terms.items():
        vec[flat_index(sys_, occ)] += amp
    np.testing.assert_array_equal(
        superposition(sys_, terms).amplitudes, Ket(vec).amplitudes
    )
    for bad in ({(0, 0): 1.0}, {(4, 0, 0): 1.0}, {(0, -1, 0): 1.0},
                {(0, 0, 0, 0): 1.0}, {(0, 0, 0): 1.0, (1, 1): 1.0}):
        with pytest.raises(ValueError):
            superposition(sys_, bad)
