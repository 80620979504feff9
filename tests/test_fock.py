import numpy as np
import pytest

from ergodyn import (
    Ket,
    ModeSystem,
    flat_index,
    fock_ket,
    free_hamiltonian,
    occupation_counts,
)


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


def test_mode_system_validation():
    with pytest.raises(ValueError):
        ModeSystem((1.0, 2.0), (1,))
    with pytest.raises(ValueError):
        ModeSystem((-1.0,), (2,))
    with pytest.raises(ValueError):
        ModeSystem((1.0,), (0,))


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

