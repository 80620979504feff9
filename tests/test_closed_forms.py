import ast
import inspect

import numpy as np
import pytest
from scipy.linalg import expm

from ergodyn import closed_forms
from ergodyn.closed_forms import (
    balanced_superposition_number,
    balanced_superposition_probabilities,
    detuning_response,
    gravitational_asymmetry,
    gravitational_probabilities,
    moon_degenerate_probabilities,
    moon_perturbative_probabilities,
    oscillation_frequency,
    oscillation_frequency_from_coherence,
    product_recurrence_possible,
    two_level_probabilities,
    two_level_survival,
)
from ergodyn.dynamics import effective_hamiltonian
from ergodyn.fock import ModeSystem, superposition
from ergodyn.oracles import build_passive_unitary, fock_ket, free_hamiltonian
from ergodyn.passive import decompose_against_ground
from ergodyn.scenarios import _assemble, load_config
from oracles import first_order_dyson

T = np.linspace(0.0, 18.0, 181)


def block_oracle(theta, gap, t):
    """Independent matrix-exponential oracle on the two-level block."""
    c, s = np.cos(theta), np.sin(theta)
    heff = s * gap * np.array([[-s, c], [c, s]])
    psi = np.array([c, s], dtype=complex)
    p0, pe = [], []
    for tt in np.atleast_1d(t):
        ph = expm(-1j * heff * tt) @ psi
        p0.append(abs(ph[0]) ** 2)
        pe.append(abs(ph[1]) ** 2)
    return np.array(p0), np.array(pe)


def test_closed_forms_import_only_math_and_numpy():
    # the closed forms are one of three independent routes: no numerics
    # from the engines (a __future__ import is a compiler directive)
    tree = ast.parse(inspect.getsource(closed_forms))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module or "." for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module != "__future__"}
    assert imported == {"math", "numpy"}


# ------------------------------------------------------------- two level


def test_two_level_theta_zero():
    p0, pe = two_level_probabilities(0.0, 1.0, T)
    np.testing.assert_array_equal(p0, 1.0)
    np.testing.assert_array_equal(pe, 0.0)


def test_two_level_theta_half_pi():
    p0, pe = two_level_probabilities(np.pi / 2, 1.0, T)
    np.testing.assert_allclose(p0, 0.0, atol=1e-30)
    np.testing.assert_allclose(pe, 1.0, atol=1e-15)


def test_two_level_against_exponential_oracle():
    # frozen from the 2x2 matrix-exponential oracle at theta=pi/3, gap=1, t=1
    p0, pe = two_level_probabilities(np.pi / 3, 1.0, 1.0)
    assert p0 == pytest.approx(0.10493043267816374, abs=1e-12)
    assert pe == pytest.approx(0.8950695673218364, abs=1e-12)
    o0, oe = block_oracle(np.pi / 3, 1.0, T)
    g0, ge = two_level_probabilities(np.pi / 3, 1.0, T)
    np.testing.assert_allclose(g0, o0, atol=1e-12)
    np.testing.assert_allclose(ge, oe, atol=1e-12)


def test_two_level_partition_exact():
    for theta in np.linspace(0.0, np.pi / 2, 9):
        p0, pe = two_level_probabilities(theta, 1.7, T)
        np.testing.assert_allclose(p0 + pe, 1.0, atol=1e-14)


def test_survival_examples():
    np.testing.assert_array_equal(two_level_survival(0.0, 1.0, T), 1.0)
    # at theta=pi/4 the survival dips to 1/2 when the argument hits pi/2
    gap = 1.0
    t_half = (np.pi / 2) / (np.sin(np.pi / 4) * gap)
    assert two_level_survival(np.pi / 4, gap, t_half) == pytest.approx(0.5, abs=1e-12)
    # random angle against the exponential oracle
    rng = np.random.default_rng(12)
    theta = float(rng.uniform(0.1, 1.4))
    c, s = np.cos(theta), np.sin(theta)
    heff = s * 1.0 * np.array([[-s, c], [c, s]])
    psi = np.array([c, s], dtype=complex)
    surv = np.array(
        [abs(np.vdot(psi, expm(-1j * heff * tt) @ psi)) ** 2 for tt in T]
    )
    np.testing.assert_allclose(two_level_survival(theta, 1.0, T), surv, atol=1e-12)


# ------------------------------------------------------------- single mode


def test_balanced_matches_two_level_at_quarter_pi():
    n, omega, e0 = 3, 1.2, 0.3
    gap = n * omega - e0
    p0b, pnb = balanced_superposition_probabilities(gap, T)
    p0t, pnt = two_level_probabilities(np.pi / 4, gap, T)
    np.testing.assert_allclose(p0b, p0t, atol=1e-14)
    np.testing.assert_allclose(pnb, pnt, atol=1e-14)


def test_balanced_time_zero_and_peak():
    p0, pn = balanced_superposition_probabilities(2.0, 0.0)
    assert (p0, pn) == (0.5, 0.5)
    t_peak = (np.pi / 2) * np.sqrt(2.0) / 2.0
    _, pn_peak = balanced_superposition_probabilities(2.0, t_peak)
    assert pn_peak == pytest.approx(1.0, abs=1e-12)
    # frozen from the exponential oracle at n=2, omega=1, t=1
    p0_1, pn_1 = balanced_superposition_probabilities(2.0, 1.0)
    assert p0_1 == pytest.approx(0.012159217968538147, abs=1e-12)
    assert pn_1 == pytest.approx(0.9878407820314623, abs=1e-12)


def test_balanced_number_expectation():
    n = 4
    assert balanced_superposition_number(n, 4.0, 0.0) == pytest.approx(n / 2)
    t = np.linspace(0.0, 20.0, 400)
    vals = balanced_superposition_number(n, 4.0, t)
    assert vals.max() == pytest.approx(n, abs=1e-3)
    _, pn = balanced_superposition_probabilities(4.0, t)
    np.testing.assert_allclose(vals, n * pn, atol=1e-14)


# ------------------------------------------------------------- two modes


def _closed_channels(scenario, t):
    return _assemble(load_config(None, {"scenario": scenario})).closed_channels(t)


def test_separable_pair_factorizes_and_sums_to_one():
    n, m, wa, wb = 2, 3, 1.0, np.sqrt(2.0)
    closed = _closed_channels("two-mode-separable", T)
    p00, pn0, p0m, pnm = (closed[k] for k in ("p_0_0", "p_2_0", "p_0_3", "p_2_3"))
    np.testing.assert_allclose(p00 + pn0 + p0m + pnm, 1.0, atol=1e-14)
    pa0, pan = balanced_superposition_probabilities(n * wa, T)
    pb0, pbm = balanced_superposition_probabilities(m * wb, T)
    np.testing.assert_allclose(p00, pa0 * pb0, atol=1e-15)
    np.testing.assert_allclose(pnm, pan * pbm, atol=1e-15)
    # the scenario's closed-form n_expect is the per-mode sum
    np.testing.assert_allclose(
        closed["n_expect"],
        balanced_superposition_number(n, n * wa, T)
        + balanced_superposition_number(m, m * wb, T),
        atol=1e-14,
    )


def test_separable_pair_time_zero():
    closed = _closed_channels("two-mode-separable", np.array([0.0, 1.0]))
    assert [closed[k][0] for k in ("p_0_0", "p_2_0", "p_0_3", "p_2_3")] == [0.25] * 4


def test_noon_probabilities():
    # (|00> + |nm>)/sqrt(2) is the balanced case at the collective gap
    n, m, wa, wb = 2, 3, 1.0, np.sqrt(2.0)
    gap = n * wa + m * wb
    p00, pnm = balanced_superposition_probabilities(gap, T)
    closed = _closed_channels("entangled-noon", T)
    np.testing.assert_array_equal(closed["p_0_0"], p00)
    np.testing.assert_array_equal(closed["p_2_3"], pnm)
    np.testing.assert_allclose(p00 + pnm, 1.0, atol=1e-14)
    assert balanced_superposition_probabilities(gap, 0.0) == (0.5, 0.5)
    # collective argument: the oscillation closes after pi*sqrt(2)/(n wa + m wb)
    period = np.pi * np.sqrt(2.0) / gap
    p00_p, _ = balanced_superposition_probabilities(gap, period)
    assert p00_p == pytest.approx(0.5, abs=1e-12)
    o0, oe = block_oracle(np.pi / 4, gap, T)
    np.testing.assert_allclose(p00, o0, atol=1e-12)
    np.testing.assert_allclose(pnm, oe, atol=1e-12)


# ------------------------------------------------------------- periodicity


def test_recurrence_single_mode_odd_multiple():
    # n*omega/sqrt(2) = 3 * base
    assert product_recurrence_possible([3], [np.sqrt(2.0)], 1.0)
    assert product_recurrence_possible([1], [np.sqrt(2.0)], 1.0)


def test_recurrence_incommensurate_pair():
    assert not product_recurrence_possible([1, 1], [np.sqrt(2.0), 2.0], 1.0)
    assert not product_recurrence_possible([2], [np.sqrt(2.0)], 1.0)  # even


def test_recurrence_ratio_past_the_float_range_is_not_periodic():
    # n omega / (sqrt(2) base) is inf here, with no warning: no odd multiple
    # of base reaches it (every finite double past 2^53 is even already)
    assert not product_recurrence_possible([2], [1e300], 1e-25)
    assert not product_recurrence_possible([2], [np.float64(1e300)], 1e-25)
    assert not product_recurrence_possible([1], [np.sqrt(2.0) * 2.0**60], 1.0)


def test_recurrence_against_simulation():
    # two modes with n_k omega_k / sqrt(2) = odd * base: recurrence at
    # t = pi / (2 base); an incommensurate detuning never recurs
    base = 1.0
    omegas = (np.sqrt(2.0), 3.0 * np.sqrt(2.0))
    ns = (1, 1)
    assert product_recurrence_possible(ns, omegas, base)
    t_rec = np.pi / (2.0 * base)
    grid = np.linspace(0.0, t_rec, 801)
    pnm = np.prod([balanced_superposition_probabilities(n * w, grid)[1]
                   for n, w in zip(ns, omegas)], axis=0)
    assert pnm.max() == pytest.approx(1.0, abs=1e-6)
    assert abs(pnm[-1] - 1.0) < 1e-12

    bad = (np.sqrt(2.0), 2.0)
    assert not product_recurrence_possible(ns, bad, base)
    pnm_bad = np.prod([
        balanced_superposition_probabilities(n * w, np.linspace(0.0, 40.0, 8001))[1]
        for n, w in zip(ns, bad)], axis=0)
    assert pnm_bad.max() < 0.999


# ------------------------------------------------------------- interferometer


def test_moon_degenerate_values():
    assert moon_degenerate_probabilities(np.pi / 4) == (
        pytest.approx(0.5),
        pytest.approx(0.5),
    )
    assert moon_degenerate_probabilities(0.0) == (pytest.approx(1.0), pytest.approx(0.0))


def full_moon_simulation(n_occ, phi, omega_a, omega_b, t_grid):
    """Independent full-space simulation of the interferometer state."""
    sys_ = ModeSystem((omega_a, omega_b), (n_occ, n_occ))
    psi = superposition(
        sys_, {(n_occ, 0): np.cos(phi), (0, n_occ): np.sin(phi)}
    )
    u_p = build_passive_unitary(decompose_against_ground(psi), sys_)
    h_eff = effective_hamiltonian(free_hamiltonian(sys_), u_p)
    pa = np.diag(fock_ket(sys_, (n_occ, 0)).amplitudes.real)
    pb = np.diag(fock_ket(sys_, (0, n_occ)).amplitudes.real)
    out_a, out_b = [], []
    for tt in t_grid:
        ph = expm(-1j * h_eff * tt) @ psi.amplitudes
        out_a.append(float((ph.conj() @ pa @ ph).real))
        out_b.append(float((ph.conj() @ pb @ ph).real))
    return np.array(out_a), np.array(out_b)


def test_moon_perturbative_eps_zero_is_constant():
    t = np.linspace(0.0, 10.0, 50)
    pa, pb = moon_perturbative_probabilities(2, 1.1, 1.0, 1.0, t)
    np.testing.assert_allclose(pa, np.cos(1.1) ** 2, atol=1e-15)
    np.testing.assert_allclose(pb, np.sin(1.1) ** 2, atol=1e-15)


def test_moon_response_at_quarter_pi():
    # response = 1/4, so the first-order deviation amplitude equals |eps|
    assert detuning_response(np.pi / 4) == pytest.approx(0.25, abs=1e-15)
    t = np.linspace(0.0, 2 * np.pi, 101)
    pa, pb = moon_perturbative_probabilities(2, np.pi / 4, 1.0, 1.0 + 1e-3, t)
    assert (pb - pa).max() == pytest.approx(2 * 1e-3 * 0.25 * 4, rel=1e-6)


def test_moon_perturbative_residual_quadratic_in_detuning():
    phi = np.pi / 3
    t = np.linspace(0.0, 2 * np.pi, 321)
    residuals = {}
    for eps in (1e-2, 1e-3):
        sim_a, sim_b = full_moon_simulation(2, phi, 1.0, 1.0 + eps, t)
        cf_a, cf_b = moon_perturbative_probabilities(2, phi, 1.0, 1.0 + eps, t)
        residuals[eps] = max(
            np.abs(sim_a - cf_a).max(), np.abs(sim_b - cf_b).max()
        )
    ratio = residuals[1e-2] / residuals[1e-3]
    assert 50 <= ratio <= 200
    assert residuals[1e-3] <= 1e-5


def test_moon_dyson_route_reproduces_first_order_formula():
    # split the exact generator into its degenerate part and the detuning
    # direction, run the generic first-order solver, and compare channels
    phi, eps, n_occ = np.pi / 3, 1e-3, 2
    omega_a, omega_b = 1.0, 1.0 + eps
    sys_ = ModeSystem((omega_a, omega_b), (n_occ, n_occ))
    psi = superposition(
        sys_, {(n_occ, 0): np.cos(phi), (0, n_occ): np.sin(phi)}
    )
    u_p = build_passive_unitary(decompose_against_ground(psi), sys_)
    h_eps = effective_hamiltonian(free_hamiltonian(sys_), u_p)
    sys_0 = ModeSystem((omega_a, omega_a), (n_occ, n_occ))
    h_0 = effective_hamiltonian(free_hamiltonian(sys_0), u_p)
    m1 = (h_eps - h_0) / eps

    t = np.linspace(0.0, 2 * np.pi, 201)
    w = first_order_dyson(h_0, m1, eps, t)
    pa_op = np.diag(fock_ket(sys_, (n_occ, 0)).amplitudes.real)
    states = np.einsum("tij,j->ti", w, psi.amplitudes)
    pa_dyson = np.einsum("ti,ij,tj->t", states.conj(), pa_op, states).real
    pa_cf, _ = moon_perturbative_probabilities(n_occ, phi, omega_a, omega_b, t)
    # agreement is first order exact; the gap grows secularly at O(eps^2 t)
    assert np.abs(pa_dyson - pa_cf).max() < 40 * eps**2


# ------------------------------------------------------------- gravity


def test_gravitational_amplitude_value():
    # direct arithmetic: r_S L / r_E^2
    asymmetry = gravitational_asymmetry(1e-2, 6.371e6, 1e5)
    assert asymmetry == pytest.approx(2.4636827903947218e-11, rel=1e-12)
    # the scenario detunes the upper arm by minus half of it
    extra = _assemble(load_config(None, {"scenario": "gravitational-mzi"})).summary_extra
    assert extra["asymmetry_closed_form"] == asymmetry
    assert extra["eps"] == pytest.approx(-0.5 * asymmetry, rel=1e-15)


def test_gravitational_probabilities_structure():
    asymmetry = gravitational_asymmetry(1e-2, 6.371e6, 1e5)
    t = np.linspace(0.0, 2 * np.pi, 101)
    p_up, p_low = gravitational_probabilities(asymmetry, 2, 1.0, t)
    assert p_up[0] == pytest.approx(0.5) and p_low[0] == pytest.approx(0.5)
    np.testing.assert_allclose(p_up + p_low, 1.0, atol=1e-15)
    assert np.all(p_up >= p_low)  # the upper arm is always at least as likely
    assert (p_up - p_low).max() == pytest.approx(asymmetry, rel=1e-6)


def test_gravitational_consistency_with_detuned_interferometer():
    asymmetry = gravitational_asymmetry(1e-2, 6.371e6, 1e5)
    omega_b = 1.0 * (1.0 - 0.5 * asymmetry)
    t = np.linspace(0.0, 7.0, 211)
    pa, pb = moon_perturbative_probabilities(2, np.pi / 4, 1.0, omega_b, t)
    pu, pl = gravitational_probabilities(asymmetry, 2, 1.0, t)
    np.testing.assert_allclose(pa, pu, atol=1e-14)
    np.testing.assert_allclose(pb, pl, atol=1e-14)


# ------------------------------------------------------------- frequencies


def test_oscillation_frequency_forms_agree_below_quarter_pi():
    gap = 1.3
    for theta in np.linspace(0.0, np.pi / 4, 25):
        direct = oscillation_frequency(theta, gap)
        via_coherence = oscillation_frequency_from_coherence(
            abs(np.sin(2 * theta)), gap
        )
        assert direct == pytest.approx(via_coherence, abs=1e-12)


def test_oscillation_frequency_forms_disagree_above_quarter_pi():
    gap = 1.0
    theta = 3 * np.pi / 8
    direct = oscillation_frequency(theta, gap)
    via = oscillation_frequency_from_coherence(abs(np.sin(2 * theta)), gap)
    assert abs(direct - via) > 1e-3
    assert via == pytest.approx(np.cos(theta) * gap, abs=1e-12)


def test_oscillation_frequency_values():
    assert oscillation_frequency(0.0, 2.0) == 0.0
    assert oscillation_frequency(np.pi / 4, 1.0) == pytest.approx(1 / np.sqrt(2.0))
    assert oscillation_frequency_from_coherence(1.0, 1.0) == pytest.approx(
        1 / np.sqrt(2.0)
    )
    # frozen: theta = pi/6 gives 1/2 through both expressions
    assert oscillation_frequency(np.pi / 6, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert oscillation_frequency_from_coherence(
        abs(np.sin(np.pi / 3)), 1.0
    ) == pytest.approx(0.5, abs=1e-12)
