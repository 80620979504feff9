import numpy as np
import pytest

from ergodyn import (
    Ket,
    ModeSystem,
    Operator,
    flat_index,
    fock_ket,
    free_hamiltonian,
    identity_operator,
    occupation_counts,
    occupations_of,
    projector,
    tensor,
    vacuum_ket,
)


def basis_order(sys_):
    """Occupations of every flat index, read back through occupations_of."""
    return [occupations_of(sys_, k) for k in range(sys_.dimension)]


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
    h = free_hamiltonian(sys_)
    assert h.hermitian_hint
    np.testing.assert_allclose(h.matrix, np.diag([0.0, 1.0, 2.0]))


def test_free_hamiltonian_two_modes():
    sys_ = ModeSystem((1.0, 2.0), (1, 1))
    np.testing.assert_allclose(
        free_hamiltonian(sys_).matrix, np.diag([0.0, 2.0, 1.0, 3.0])
    )


def test_free_hamiltonian_eigenvalue_is_weighted_occupation():
    sys_ = ModeSystem((1.3, 0.7), (3, 2))
    h = free_hamiltonian(sys_)
    for n in range(4):
        for m in range(3):
            ket = fock_ket(sys_, (n, m))
            assert h.expectation(ket).real == pytest.approx(
                n * 1.3 + m * 0.7, abs=1e-12
            )


def test_fock_ket_out_of_range():
    sys_ = ModeSystem((1.0,), (2,))
    with pytest.raises(ValueError):
        fock_ket(sys_, (3,))
    with pytest.raises(ValueError):
        fock_ket(sys_, (0, 0))


def test_projector_properties():
    sys_ = ModeSystem((1.0,), (3,))
    p = projector(vacuum_ket(sys_))
    np.testing.assert_allclose(np.trace(p.matrix), 1.0, atol=1e-12)
    np.testing.assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-12)
    np.testing.assert_allclose(p.matrix, p.matrix.conj().T, atol=1e-12)


def test_tensor_identity_and_hamiltonian_composition():
    ia, ib = identity_operator(2), identity_operator(3)
    np.testing.assert_allclose(tensor(ia, ib).matrix, np.eye(6))
    # free Hamiltonians compose as H_a x 1 + 1 x H_b
    ha = Operator(np.diag([0.0, 1.0]), hermitian_hint=True)
    hb = Operator(np.diag([0.0, 2.0]), hermitian_hint=True)
    total = tensor(ha, identity_operator(2)).matrix + tensor(
        identity_operator(2), hb
    ).matrix
    np.testing.assert_allclose(total, np.diag([0.0, 2.0, 1.0, 3.0]))
    sys_ = ModeSystem((1.0, 2.0), (1, 1))
    np.testing.assert_allclose(total, free_hamiltonian(sys_).matrix)


def test_tensor_associative_and_dimension():
    rng = np.random.default_rng(3)
    # dyadic entries keep float products exactly associative
    mats = [np.diag(rng.integers(0, 8, d) / 4.0) for d in (2, 3, 2)]
    ops = [Operator(m, hermitian_hint=True) for m in mats]
    left = tensor(tensor(ops[0], ops[1]), ops[2])
    right = tensor(ops[0], tensor(ops[1], ops[2]))
    np.testing.assert_array_equal(left.matrix, right.matrix)
    assert left.dimension == 12


def test_commuting_diagonals():
    sys_ = ModeSystem((1.1, 2.2), (2, 2))
    h = free_hamiltonian(sys_).matrix
    n = np.diag(occupation_counts(sys_))
    np.testing.assert_array_equal(h @ n, n @ h)


def test_ket_normalization_and_zero_rejection():
    k = Ket([3.0, 4.0])
    np.testing.assert_allclose(np.linalg.norm(k.amplitudes), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        Ket([0.0, 0.0])


def test_operator_hermitian_hint_enforced():
    with pytest.raises(ValueError):
        Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian_hint=True)
