import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ergodyn.fock import Ket, ModeSystem, superposition
from ergodyn.measures import l1_coherence, negativity
from ergodyn.oracles import DensityOperator, fock_ket

TWO = ModeSystem((1.0, 1.5), (2, 3))


def family_state(theta, n=2, m=3):
    return superposition(TWO, {(0, 0): np.cos(theta), (n, m): np.sin(theta)})


def test_l1_vanishes_on_basis_states():
    for occ in [(0, 0), (1, 2), (2, 3)]:
        assert l1_coherence(fock_ket(TWO, occ)) == pytest.approx(
            0.0, abs=1e-15
        )


def test_l1_superposition_value():
    single = ModeSystem((1.0,), (4,))
    for theta in np.linspace(0.0, np.pi / 2, 9):
        psi = superposition(single, {(0,): np.cos(theta), (3,): np.sin(theta)})
        assert l1_coherence(psi) == pytest.approx(abs(np.sin(2 * theta)), abs=1e-12)


def test_l1_maximally_entangled_pair():
    assert l1_coherence(family_state(np.pi / 4)) == pytest.approx(1.0, abs=1e-12)


def test_l1_zero_iff_diagonal():
    rng = np.random.default_rng(14)
    probs = rng.dirichlet(np.ones(TWO.dimension))
    diag = DensityOperator(np.diag(probs))
    assert oracles.l1_coherence(diag) == pytest.approx(0.0, abs=1e-12)
    off = np.diag(probs).astype(complex)
    off[0, 1] = off[1, 0] = 0.01
    rho = DensityOperator(off - np.diag([0.0] * TWO.dimension))
    assert oracles.l1_coherence(rho) > 1e-3


def test_negativity_product_state():
    assert negativity(fock_ket(TWO, (1, 2)), TWO) == pytest.approx(0.0, abs=1e-12)
    plus = superposition(TWO, {(0, 0): 1.0, (1, 0): 1.0})
    assert negativity(plus, TWO) == pytest.approx(0.0, abs=1e-12)


def test_negativity_family_is_half_coherence():
    for theta in np.linspace(0.0, np.pi / 2, 9):
        rho = family_state(theta)
        n = negativity(rho, TWO)
        assert n == pytest.approx(0.5 * abs(np.sin(2 * theta)), abs=1e-12)
        assert n == pytest.approx(0.5 * l1_coherence(rho), abs=1e-12)


def test_negativity_maximal_value():
    assert negativity(family_state(np.pi / 4), TWO) == pytest.approx(0.5, abs=1e-12)


def test_negativity_invariant_under_local_unitaries():
    rng = np.random.default_rng(15)
    psi = family_state(0.9)
    base = negativity(psi, TWO)
    da, db = 3, 4
    for _ in range(100):
        za = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        zb = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        ua, _ = np.linalg.qr(za)
        ub, _ = np.linalg.qr(zb)
        u = np.kron(ua, ub)
        rotated = Ket(u @ psi.amplitudes)
        assert abs(negativity(rotated, TWO) - base) < 1e-10


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(16)
    # product of two mixed factors: the partial transpose stays a state
    za = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    zb = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_a = za @ za.conj().T
    rho_b = zb @ zb.conj().T
    mat = np.kron(rho_a / np.trace(rho_a).real, rho_b / np.trace(rho_b).real)
    rho = DensityOperator(mat)
    pt = oracles.partial_transpose(rho, TWO)
    assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        pt, np.kron(rho_a / np.trace(rho_a).real, (rho_b / np.trace(rho_b).real).T),
        atol=1e-14,
    )
    pt2 = oracles.partial_transpose(DensityOperator(pt), TWO)
    np.testing.assert_allclose(pt2, rho.matrix, atol=1e-14)


def test_negativity_splits_mode_0_from_the_rest():
    # mode 0 in vacuum, modes 1 and 2 maximally entangled: the split of
    # mode 0 from the rest sees no entanglement, the split of mode 1 does
    sys3 = ModeSystem((1.0, 1.0, 1.0), (1, 1, 1))
    psi = superposition(sys3, {(0, 0, 0): 1.0, (0, 1, 1): 1.0})
    assert negativity(psi, sys3) == pytest.approx(0.0, abs=1e-12)
    rho = oracles.pure_density(psi)
    assert oracles.negativity(rho, sys3, (1,)) == pytest.approx(0.5, abs=1e-12)


def test_three_mode_bipartition():
    sys3 = ModeSystem((1.0, 1.0, 1.0), (1, 1, 1))
    bell_like = superposition(sys3, {(0, 0, 0): 1.0, (1, 1, 1): 1.0})
    # a GHZ-like state has negativity 1/2 across mode 0 against the rest
    assert negativity(bell_like, sys3) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    cutoffs=st.sampled_from([(1, 1), (2, 3), (3, 1), (1, 2, 1), (2, 1, 2)]),
    data=st.data(),
)
def test_amplitude_measures_match_density_matrix_oracles(cutoffs, data):
    sys_ = ModeSystem((1.0,) * len(cutoffs), cutoffs)
    dim = sys_.dimension
    support = data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim))
    amps = np.zeros(dim, dtype=complex)
    for k in support:
        amps[k] = data.draw(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), label=f"amp{k}"
        )
    psi = Ket(amps)
    rho = oracles.pure_density(psi)
    assert abs(l1_coherence(psi) - oracles.l1_coherence(rho)) <= 1e-12
    dense = oracles.negativity(rho, sys_)
    assert abs(negativity(psi, sys_) - dense) <= 1e-12
