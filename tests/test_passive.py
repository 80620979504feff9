import itertools

import numpy as np
import pytest

from ergodyn.fock import Ket, ModeSystem, superposition
from ergodyn.oracles import (
    DegenerateSpectrumError,
    DensityOperator,
    build_passive_unitary,
    fock_ket,
    passive_state,
    vacuum_ket,
)
from ergodyn.passive import decompose_against_ground

SYS5 = ModeSystem((1.0,), (4,))


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(v)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def brute_force_minimum(rho, h):
    """Independent oracle: scan all population/level pairings."""
    pops = np.linalg.eigvalsh(rho.matrix)
    levels = np.linalg.eigvalsh(h)
    return min(
        float(np.dot(pops[list(perm)], levels))
        for perm in itertools.permutations(range(len(levels)))
    )


def test_decompose_ground_state():
    # the second ket normalizes to a ground amplitude one ulp below 1
    amps = np.zeros(SYS5.dimension)
    amps[0] = 0.9066030300903916
    for psi in (vacuum_ket(SYS5), Ket(amps)):
        dec = decompose_against_ground(psi)
        assert dec.theta == 0.0
        assert dec.excited is None


def test_decompose_balanced():
    psi = superposition(SYS5, {(0,): 1.0, (3,): 1.0})
    dec = decompose_against_ground(psi)
    assert dec.theta == pytest.approx(np.pi / 4, abs=1e-12)
    np.testing.assert_allclose(
        dec.excited.amplitudes, fock_ket(SYS5, (3,)).amplitudes, atol=1e-12
    )


def test_decompose_two_component_excited():
    th = np.pi / 5
    psi = superposition(
        SYS5,
        {(0,): np.cos(th), (1,): np.sin(th) / np.sqrt(2), (2,): np.sin(th) / np.sqrt(2)},
    )
    dec = decompose_against_ground(psi)
    assert dec.theta == pytest.approx(th, abs=1e-12)
    rebuilt = np.cos(dec.theta) * vacuum_ket(SYS5).amplitudes + np.sin(
        dec.theta
    ) * dec.excited.amplitudes
    np.testing.assert_allclose(rebuilt, psi.amplitudes, atol=1e-12)


def test_decompose_canonical_phase():
    rng = np.random.default_rng(11)
    for _ in range(25):
        psi = random_ket(rng, 5)
        dec = decompose_against_ground(psi)
        assert 0.0 <= dec.theta <= np.pi / 2
        if dec.excited is not None:
            assert abs(dec.excited.amplitudes[0]) < 1e-12
            rebuilt = (
                np.cos(dec.theta) * vacuum_ket(SYS5).amplitudes
                + np.sin(dec.theta) * dec.excited.amplitudes
            )
            # reconstruction matches up to the global phase that was removed
            phase = psi.amplitudes @ rebuilt.conj()
            phase /= abs(phase)
            np.testing.assert_allclose(rebuilt * phase, psi.amplitudes, atol=1e-12)


def test_passive_unitary_identity_at_theta_zero():
    u = build_passive_unitary(decompose_against_ground(vacuum_ket(SYS5)), SYS5)
    np.testing.assert_array_equal(u, np.eye(5))


def test_passive_unitary_orthogonal_state():
    n = 3
    psi = fock_ket(SYS5, (n,))
    u = build_passive_unitary(decompose_against_ground(psi), SYS5)
    expected = np.eye(5, dtype=complex)
    expected[0, 0] = expected[n, n] = 0.0
    expected[0, n] = 1.0
    expected[n, 0] = -1.0
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_passive_unitary_balanced():
    n = 3
    psi = superposition(SYS5, {(0,): 1.0, (n,): 1.0})
    u = build_passive_unitary(decompose_against_ground(psi), SYS5)
    r = 1.0 / np.sqrt(2.0)
    expected = np.eye(5, dtype=complex)
    expected[0, 0] = expected[n, n] = r
    expected[0, n] = r
    expected[n, 0] = -r
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_passive_unitary_roundtrip_and_unitarity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        psi = random_ket(rng, 5)
        u = build_passive_unitary(decompose_against_ground(psi), SYS5)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
        mapped = u @ psi.amplitudes
        assert abs(abs(mapped[0]) - 1.0) < 1e-12
        assert np.abs(mapped[1:]).max() < 1e-12


def test_passive_unitary_acts_only_on_the_plane():
    rng = np.random.default_rng(6)
    psi = random_ket(rng, 5)
    dec = decompose_against_ground(psi)
    u = build_passive_unitary(dec, SYS5)
    g = np.eye(5)[0]
    e = dec.excited.amplitudes
    plane = np.outer(g, g) + np.outer(e, e.conj())
    off_plane = np.eye(5) - plane
    np.testing.assert_allclose((u - np.eye(5)) @ off_plane, 0.0, atol=1e-12)


def test_passive_state_already_passive():
    h = np.diag([0.0, 1.0, 2.0, 3.0])
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]))
    out = passive_state(rho, h)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_passive_state_of_excited_eigenstate_is_ground_projector():
    h = np.diag([0.0, 1.0, 2.0])
    rho = DensityOperator(np.diag([0.0, 0.0, 1.0]))
    out = passive_state(rho, h)
    np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_passive_state_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(3, 6))
        h = np.diag(np.sort(rng.uniform(0, 3, dim)))
        rho = random_density(rng, dim)
        out = passive_state(rho, h)
        energy = np.trace(out.matrix @ h).real
        assert energy == pytest.approx(brute_force_minimum(rho, h), abs=1e-12)
        # spectrum preserved as a multiset
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix),
            np.linalg.eigvalsh(rho.matrix),
            atol=1e-10,
        )
        # commutes with the Hamiltonian
        comm = out.matrix @ h - h @ out.matrix
        assert np.abs(comm).max() < 1e-10


def test_passive_state_beats_random_unitaries():
    rng = np.random.default_rng(8)
    dim = 4
    h = np.diag([0.0, 0.7, 1.9, 2.4])
    rho = random_density(rng, dim)
    base = np.trace(passive_state(rho, h).matrix @ h).real
    for _ in range(200):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
        energy = np.trace(q @ rho.matrix @ q.conj().T @ h).real
        assert base <= energy + 1e-12


def test_passive_state_degenerate_spectrum_rejected():
    h = np.diag([0.0, 1.0, 1.0])
    rho = DensityOperator(np.eye(3) / 3)
    with pytest.raises(DegenerateSpectrumError):
        passive_state(rho, h)


def test_passive_state_checks_the_hamiltonian():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValueError, match="Hermitian"):
        passive_state(rho, np.array([[0.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        passive_state(rho, np.diag([0.0, 1.0, 2.0]))
