import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ergodyn import dynamics
from ergodyn.closed_forms import two_level_probabilities, two_level_survival
from ergodyn.dynamics import (
    LEAKAGE_TOL,
    RK4_DRIFT_TOL,
    TimeSeries,
    _projected_block,
    _reduced_states,
    _tiles,
    effective_dynamics,
    effective_hamiltonian,
    evolve_probabilities,
    read_channels,
    rk4_expectation_series,
    survival_probability,
)
from ergodyn.errors import GridError, RefinementError
from ergodyn.fock import (
    Ket,
    ModeSystem,
    flat_index,
    free_energies,
    occupation_counts,
    superposition,
)
from ergodyn.oracles import (
    build_passive_unitary,
    expanded_generator,
    fock_ket,
    free_hamiltonian,
    kron_generator,
    propagator,
    vacuum_ket,
)
from ergodyn.passive import decompose_against_ground
from ergodyn.scenarios import TOL_RK4, _assemble, load_config, run_scenario
from oracles import (
    block_probabilities,
    dense_rk4_states,
    first_order_dyson,
    read_channels_per_channel,
    subspace_generator,
)


def whole_register(sys_, psi):
    """Factored generator of one rotation over the whole register."""
    return effective_dynamics([(free_energies(sys_), psi)])


def dense_generator(sys_, psi):
    """Dense oracle H - U_p^dag H U_p of the same rotation."""
    u_p = build_passive_unitary(decompose_against_ground(psi), sys_)
    return effective_hamiltonian(free_hamiltonian(sys_), u_p)


def two_level_setup(theta, gap, cutoff=1):
    """One mode at frequency = gap, state cos|0> + sin|cutoff-level n=1...>."""
    sys_ = ModeSystem((gap,), (cutoff,))
    psi = superposition(sys_, {(0,): np.cos(theta), (1,): np.sin(theta)})
    return sys_, psi, whole_register(sys_, psi)


def dense_states(h_eff, psi, t_grid):
    """Columns exp(-i H_eff t) psi of the dense propagator, one per grid time."""
    return np.stack([propagator(h_eff, t) @ psi.amplitudes for t in t_grid], axis=1)


def random_eigen_system(rng, dim):
    """Random diagonal H (ground first, nondegenerate) and random state."""
    levels = np.concatenate([[0.0], np.sort(rng.uniform(0.3, 3.0, dim - 1))])
    h = np.diag(levels)
    psi = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return h, psi


# ------------------------------------------------------------- generator


def test_ground_state_gives_zero_generator():
    sys_ = ModeSystem((1.0,), (3,))
    psi = vacuum_ket(sys_)
    h_eff = dense_generator(sys_, psi)
    np.testing.assert_array_equal(h_eff, 0.0)
    np.testing.assert_array_equal(kron_generator(whole_register(sys_, psi)), 0.0)
    # frozen ground state: the propagator is exactly the identity
    for t in (0.0, 1.7, 100.0):
        np.testing.assert_array_equal(propagator(h_eff, t), np.eye(4))
    series = evolve_probabilities(
        whole_register(sys_, psi), psi, {"p0": [0]}, np.linspace(0.0, 100.0, 7)
    )
    np.testing.assert_array_equal(series["p0"], 1.0)


def test_two_level_block_matches_direct_product():
    theta, gap = 0.7, 1.3
    sys_, psi, dyn = two_level_setup(theta, gap)
    c, s = np.cos(theta), np.sin(theta)
    expected_block = s * gap * np.array([[-s, c], [c, s]])
    np.testing.assert_allclose(kron_generator(dyn).real, expected_block, atol=1e-12)
    # independent route: build U_p H U_p^dag by hand
    u = build_passive_unitary(decompose_against_ground(psi), sys_)
    h = free_hamiltonian(sys_)
    np.testing.assert_allclose(kron_generator(dyn), h - u.conj().T @ h @ u, atol=1e-14)


def test_generator_block_structure_in_full_space():
    sys_ = ModeSystem((1.0,), (4,))
    psi = superposition(sys_, {(0,): 1.0, (3,): 1.0})
    mask = np.ones((5, 5), dtype=bool)
    mask[np.ix_([0, 3], [0, 3])] = False
    assert np.abs(kron_generator(whole_register(sys_, psi))[mask]).max() < 1e-12
    assert np.abs(dense_generator(sys_, psi)[mask]).max() < 1e-12


def test_generator_scalars_and_trace():
    theta, gap = 0.9, 2.0
    _, _, dyn = two_level_setup(theta, gap)
    assert dyn.ground_energy == pytest.approx(0.0, abs=1e-12)
    assert dyn.excited_energy == pytest.approx(gap, abs=1e-12)
    assert dyn.energy_gap == pytest.approx(gap, abs=1e-12)
    assert dyn.mixing_sine == pytest.approx(np.sin(theta), abs=1e-12)
    assert abs(np.trace(kron_generator(dyn))) < 1e-12


def test_two_level_spectrum():
    theta, gap = 0.7, 1.3
    _, _, dyn = two_level_setup(theta, gap)
    eigs = np.linalg.eigvalsh(kron_generator(dyn))
    np.testing.assert_allclose(
        eigs, [-np.sin(theta) * gap, np.sin(theta) * gap], atol=1e-12
    )


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        effective_hamiltonian(np.diag([0.0, 1.0]), np.eye(3))
    with pytest.raises(ValueError):
        effective_dynamics([(np.array([0.0, 1.0]), Ket([1.0, 1.0, 0.0]))])


# ------------------------------------------------------------- expanded form


def test_expanded_generator_eigenstate_reduces_to_two_level():
    theta, gap = 0.52, 1.7
    sys_, psi, dyn = two_level_setup(theta, gap)
    g = expanded_generator(free_hamiltonian(sys_), decompose_against_ground(psi))
    np.testing.assert_allclose(g, -kron_generator(dyn), atol=1e-12)
    c, s = np.cos(theta), np.sin(theta)
    expected = s * gap * np.array([[s, -c], [-c, -s]])
    np.testing.assert_allclose(g.real, expected, atol=1e-12)


def test_expanded_generator_equals_conjugation_difference():
    rng = np.random.default_rng(21)
    for _ in range(40):
        dim = int(rng.integers(3, 9))
        h, psi = random_eigen_system(rng, dim)
        sys_ = ModeSystem((1.0,), (dim - 1,))
        dec = decompose_against_ground(psi)
        g = expanded_generator(h, dec)
        u = build_passive_unitary(dec, sys_)
        oracle = u.conj().T @ h @ u - h
        np.testing.assert_allclose(g, oracle, atol=1e-10)
        h_eff = effective_hamiltonian(h, u)
        np.testing.assert_allclose(g, -h_eff, atol=1e-10)
        dyn = effective_dynamics([(np.diag(h), psi)])
        np.testing.assert_allclose(g, -kron_generator(dyn), atol=1e-10)


def test_expanded_generator_zero_at_theta_zero():
    sys_ = ModeSystem((1.0,), (3,))
    g = expanded_generator(
        free_hamiltonian(sys_), decompose_against_ground(vacuum_ket(sys_))
    )
    np.testing.assert_array_equal(g, 0.0)


# ------------------------------------------------------------- 4x4 block route


def test_subspace_generator_zero_theta():
    gen = subspace_generator(0.0, 1.0)
    np.testing.assert_array_equal(gen.matrix, 0.0)


def test_subspace_generator_half_pi():
    gen = subspace_generator(np.pi / 2, 1.0)
    np.testing.assert_allclose(
        gen.matrix, np.diag([0.0, 2.0, -2.0, 0.0]), atol=1e-12
    )


def test_subspace_generator_symmetric():
    gen = subspace_generator(0.6, 1.0)
    np.testing.assert_allclose(gen.matrix, gen.matrix.T, atol=1e-15)


def test_block_route_matches_propagator_route():
    theta, gap = np.pi / 3, 1.4
    sys_, psi, dyn = two_level_setup(theta, gap)
    t = np.linspace(0.0, 15.0, 301)
    gen = subspace_generator(theta, gap)
    p0_block, pe_block = block_probabilities(gen, theta, t)
    series = evolve_probabilities(
        dyn,
        psi,
        {"p0": [flat_index(sys_, (0,))], "pe": [flat_index(sys_, (1,))]},
        t,
    )
    np.testing.assert_allclose(p0_block, series["p0"], atol=1e-10)
    np.testing.assert_allclose(pe_block, series["pe"], atol=1e-10)


# ------------------------------------------------------------- propagators


def test_propagator_time_zero_is_identity():
    sys_, psi, _ = two_level_setup(0.8, 1.0)
    np.testing.assert_allclose(
        propagator(dense_generator(sys_, psi), 0.0), np.eye(2), atol=1e-15
    )


def test_propagator_unitary_and_matches_expm():
    rng = np.random.default_rng(2)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        h, psi = random_eigen_system(rng, dim)
        sys_ = ModeSystem((1.0,), (dim - 1,))
        u_p = build_passive_unitary(decompose_against_ground(psi), sys_)
        h_eff = effective_hamiltonian(h, u_p)
        t = float(rng.uniform(0.0, 10.0))
        u = propagator(h_eff, t)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-11)
        np.testing.assert_allclose(u, expm(-1j * h_eff * t), atol=1e-10)


def test_propagator_two_level_probability_closed_form():
    theta, gap = np.pi / 4, 2.0
    sys_, psi, dyn = two_level_setup(theta, gap)
    t = np.linspace(0.0, 12.0, 200)
    series = evolve_probabilities(dyn, psi, {"pe": [flat_index(sys_, (1,))]}, t)
    _, pe = two_level_probabilities(theta, gap, t)
    np.testing.assert_allclose(series["pe"], pe, atol=1e-12)


def _compare_run(**overrides):
    """Series of ``ergodyn compare``: the std_* channels come from exp(-i H t)."""
    overrides = {"engine": "exponential", "comparison": "true", **overrides}
    series, _ = run_scenario(load_config(None, overrides))
    return series.channels


def test_standard_route_keeps_eigenstate_survival():
    channels = _compare_run(
        scenario="single-eigenstate", n="2", cutoffs="3", t_max="3.0", steps="7"
    )
    np.testing.assert_allclose(channels["std_p_survival"], 1.0, atol=1e-12)
    np.testing.assert_allclose(channels["std_p_2"], 1.0, atol=1e-12)
    np.testing.assert_allclose(channels["std_p_0"], 0.0, atol=1e-12)
    assert channels["std_n_expect"][0] == pytest.approx(2.0, abs=1e-15)


def test_standard_dynamics_keeps_populations_constant():
    channels = _compare_run(
        scenario="custom-state",
        cutoffs="4",
        omega="1.0",
        amplitudes="1,0,0,1,0",
        t_max="9.0",
        steps="40",
    )
    np.testing.assert_allclose(channels["std_p_0"], 0.5, atol=1e-12)
    np.testing.assert_allclose(channels["std_p_3"], 0.5, atol=1e-12)
    np.testing.assert_allclose(channels["std_p_other"], 0.0, atol=1e-12)


# ------------------------------------------------------------- RK4 route


def test_rk4_static_generator_keeps_operator():
    # the vacuum has H_eff = 0, so the powered step is the identity and every
    # channel keeps its initial value bit for bit
    sys_ = ModeSystem((1.0,), (2,))
    psi = vacuum_ket(sys_)
    dyn = whole_register(sys_, psi)
    t = np.linspace(0.0, 5.0, 11)
    got = rk4_expectation_series(
        dyn, psi, {"p_0": [0], "p_other": [1, 2]}, t,
        occupation_counts(sys_), substeps=4,
    )
    assert got.keys() == {"p_0", "p_other", "n_expect", "p_survival"}
    np.testing.assert_array_equal(got["p_0"], 1.0)
    np.testing.assert_array_equal(got["p_other"], 0.0)
    np.testing.assert_array_equal(got["n_expect"], 0.0)
    np.testing.assert_array_equal(got["p_survival"], 1.0)


def test_rk4_fourth_order_convergence():
    theta, gap = 0.9, 1.5
    sys_, psi, dyn = two_level_setup(theta, gap)
    channels = {"pe": [flat_index(sys_, (1,))]}
    t = np.linspace(0.0, 6.0, 31)

    def max_err(substeps):
        got = rk4_expectation_series(dyn, psi, channels, t, substeps=substeps)
        _, expected = two_level_probabilities(theta, gap, t)
        return np.abs(got["pe"] - expected).max()

    coarse, fine = max_err(40), max_err(80)
    assert coarse / fine == pytest.approx(16.0, rel=0.25)


def test_rk4_matches_closed_form_at_default_step():
    theta, gap = np.pi / 4, 1.0
    sys_, psi, dyn = two_level_setup(theta, gap)
    t = np.linspace(0.0, 2 * np.pi / (np.sin(theta) * gap), 201)
    got = rk4_expectation_series(
        dyn, psi, {"pe": [flat_index(sys_, (1,))]}, t, omega_max=gap,
    )
    _, expected = two_level_probabilities(theta, gap, t)
    assert np.abs(got["pe"] - expected).max() < 1e-8
    survival = two_level_survival(theta, gap, t)
    assert np.abs(got["p_survival"] - survival).max() < 1e-8


def test_rk4_rejects_nonuniform_grid():
    _, psi, dyn = two_level_setup(0.3, 1.0)
    with pytest.raises(GridError):
        rk4_expectation_series(dyn, psi, {"p0": [0]}, [0.0, 0.1, 0.3])


def test_rk4_rejects_a_grid_not_starting_at_zero():
    # psi0 is the state at t = 0 on both routes; on linspace(1, 2, 5) the
    # exponential route reads p_1 = 0.825 -> 1.000, the RK4 steps from t[0]
    # would read 0.640 -> 0.825
    sys_ = ModeSystem((1.0,), (1,))
    psi = superposition(sys_, {(0,): 0.6, (1,): 0.8})
    dyn = whole_register(sys_, psi)
    t = np.linspace(1.0, 2.0, 5)
    channels = {"p_0": [0], "p_1": [1]}
    series = evolve_probabilities(dyn, psi, channels, t)
    assert series["p_1"][[0, -1]] == pytest.approx([0.825, 1.0], abs=1e-3)
    with pytest.raises(GridError, match="start at t = 0"):
        rk4_expectation_series(dyn, psi, channels, t)


def test_rk4_rejects_overly_coarse_step():
    sys_, psi, dyn = two_level_setup(0.9, 5.0)
    with pytest.raises(RefinementError):
        rk4_expectation_series(
            dyn, psi, {"pe": [flat_index(sys_, (1,))]},
            np.linspace(0.0, 40.0, 5), substeps=1,
        )


def _random_custom_state(cutoffs, data):
    """Config of a custom state on ``cutoffs`` with random amplitudes on a
    random support that leaves out at least two basis vectors."""
    omega = (1.0, 1.7, 2.3)[: len(cutoffs)]
    dim = math.prod(c + 1 for c in cutoffs)
    support = data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 2))
    amps = np.zeros(dim, dtype=complex)
    for k in support:
        amps[k] = data.draw(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), label=f"amp{k}"
        )
    return load_config(
        None,
        {
            "scenario": "custom-state",
            "cutoffs": ",".join(map(str, cutoffs)),
            "omega": ",".join(map(str, omega)),
            "amplitudes": ",".join(map(repr, amps.tolist())),
        },
    )


@settings(max_examples=10, deadline=None)
@given(
    cutoffs=st.sampled_from([(3,), (7,), (15,), (1, 2), (3, 3), (1, 1, 1)]),
    data=st.data(),
)
def test_rk4_matches_exponential_on_random_custom_states(cutoffs, data):
    # each example also draws a product, whose modes RK4 steps one by one
    ns = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    product = {"scenario": "multimode-product", "ns": ",".join(map(str, ns))}
    for cfg in (_random_custom_state(cutoffs, data), load_config(None, product)):
        prep = _assemble(cfg)
        occupations = occupation_counts(prep.system)
        t = np.linspace(0.0, 6.0, 25)
        got = rk4_expectation_series(
            prep.dyn, prep.psi0, prep.channels, t, occupations,
            omega_max=max(prep.system.omega),
        )
        # the exponential route alone gives the keys of the RK4 route, and
        # survival_probability the same p_survival bit for bit
        args = prep.dyn, prep.psi0
        expected = evolve_probabilities(*args, prep.channels, t, occupations)
        assert got.keys() == expected.keys()
        survival = survival_probability(*args, t)
        assert survival.keys() == {"p_survival"}
        np.testing.assert_array_equal(survival["p_survival"], expected["p_survival"])
        assert ("p_other" in got) == (cfg.scenario == "custom-state")
        for name, values in expected.items():
            assert np.abs(got[name] - values).max() <= TOL_RK4, name


@settings(max_examples=20, deadline=None)
@given(
    cutoffs=st.sampled_from([(3,), (7,), (1, 2), (3, 3), (1, 1, 1)]),
    substeps=st.integers(20, 60),
    data=st.data(),
)
def test_subspace_rk4_matches_dense_rk4(cutoffs, substeps, data):
    _check_subspace_rk4_against_dense(_random_custom_state(cutoffs, data), substeps)


def test_subspace_rk4_refuses_where_dense_rk4_drifts():
    # at 20 substeps on (3, 3) both forms drift by 1.01189e-06 at t = 2.75
    amps = np.zeros(16, dtype=complex)
    amps[[0, 1, 15]] = 0.125, 0.5, 1.0
    cfg = load_config(None, {
        "scenario": "custom-state", "cutoffs": "3,3", "omega": "1.0,1.7",
        "amplitudes": ",".join(map(repr, amps.tolist())),
    })
    assert _check_subspace_rk4_against_dense(cfg, 20) == "refused"


def _check_subspace_rk4_against_dense(cfg, substeps):
    """The same step polynomial at the same substeps, on the subspace and on
    the dense generator: equal up to rounding, or refused by the drift gate
    at a time where the dense states drift past it too."""
    prep = _assemble(cfg)
    occupations = occupation_counts(prep.system)
    t = np.linspace(0.0, 3.0, 13)
    states = dense_rk4_states(prep.dyn, prep.psi0, t, substeps)
    try:
        got = rk4_expectation_series(
            prep.dyn, prep.psi0, prep.channels, t, occupations, substeps=substeps,
        )
    except RefinementError as exc:
        at = float(re.search(r" at t=(\S+);", str(exc)).group(1))
        k = int(np.argmin(np.abs(t - at)))
        assert abs(t[k] - at) <= 1e-5 * t[-1], str(exc)
        assert abs(np.linalg.norm(states[:, k]) - 1.0) > RK4_DRIFT_TOL, str(exc)
        return "refused"
    expected = read_channels_per_channel(
        np.arange(len(states)), states, prep.psi0.amplitudes, prep.channels,
        occupations,
    )
    assert got.keys() == expected.keys()
    for name, values in expected.items():
        assert np.all(
            np.abs(got[name] - values) <= 1e-12 * np.maximum(1.0, np.abs(values))
        ), name
    return "matched"


@pytest.mark.parametrize(
    "overrides",
    [
        {"scenario": "custom-state", "cutoffs": "3,2", "omega": "1.0,1.7",
         "amplitudes": "0.5,0,0.3j,0,0,0,(0.2-0.4j),0,0,0,0,0.6"},
        {"scenario": "multimode-product", "ns": "1,2,3"},
    ],
    ids=["single-factor", "product"],
)
def test_rk4_route_calls_no_eigensolver(monkeypatch, overrides):
    prep = _assemble(load_config(None, overrides))
    occupations = occupation_counts(prep.system)
    t = np.linspace(0.0, 4.0, 17)

    def refuse(*args, **kwargs):
        raise AssertionError("the RK4 route called an eigensolver")

    with monkeypatch.context() as patch:
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            patch.setattr(np.linalg, name, refuse)
        got = rk4_expectation_series(
            prep.dyn, prep.psi0, prep.channels, t, occupations,
            omega_max=max(prep.system.omega),
        )
        with pytest.raises(AssertionError, match="eigensolver"):
            evolve_probabilities(prep.dyn, prep.psi0, prep.channels, t)
    expected = evolve_probabilities(prep.dyn, prep.psi0, prep.channels, t, occupations)
    for name, values in expected.items():
        assert np.abs(got[name] - values).max() <= TOL_RK4, name


def test_propagator_rejects_nonfinite_time():
    sys_, psi, _ = two_level_setup(0.3, 1.0)
    with pytest.raises(ValueError):
        propagator(dense_generator(sys_, psi), np.inf)


# ------------------------------------------------------------- expectations


def test_evolution_initial_values_are_overlaps():
    sys_ = ModeSystem((1.0,), (4,))
    psi = superposition(sys_, {(0,): 0.6, (2,): 0.8})
    dyn = whole_register(sys_, psi)
    t = np.linspace(0.0, 1.0, 5)
    series = evolve_probabilities(
        dyn,
        psi,
        {
            "p0": [flat_index(sys_, (0,))],
            "p2": [flat_index(sys_, (2,))],
        },
        t,
        occupations=occupation_counts(sys_),
    )
    assert series["p0"][0] == pytest.approx(0.36, abs=1e-12)
    assert series["p2"][0] == pytest.approx(0.64, abs=1e-12)
    assert series["n_expect"][0] == pytest.approx(1.28, abs=1e-12)


def test_number_expectation_closed_form():
    n, omega = 3, 1.0
    sys_ = ModeSystem((omega,), (4,))
    psi = superposition(sys_, {(0,): 1.0, (n,): 1.0})
    dyn = whole_register(sys_, psi)
    t = np.linspace(0.0, 10.0, 101)
    series = evolve_probabilities(
        dyn,
        psi,
        {"p0": [flat_index(sys_, (0,))], "pn": [flat_index(sys_, (n,))]},
        t,
        occupations=occupation_counts(sys_),
    )
    expected = 0.5 * n * (1.0 + np.sin(n * omega * t / np.sqrt(2.0)) ** 2)
    np.testing.assert_allclose(series["n_expect"], expected, atol=1e-10)


def test_eigenstate_is_stationary():
    sys_ = ModeSystem((1.0,), (4,))
    psi = fock_ket(sys_, (3,))
    dyn = whole_register(sys_, psi)
    t = np.linspace(0.0, 25.0, 101)
    series = evolve_probabilities(dyn, psi, {"pn": [flat_index(sys_, (3,))]}, t)
    np.testing.assert_allclose(series["pn"], 1.0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    cutoffs=st.sampled_from([(3,), (5,), (1, 2), (2, 2)]),
    data=st.data(),
)
def test_index_readout_matches_dense_projectors(cutoffs, data):
    # oracle: each channel as the dense projector its name denotes, with
    # p_other = 1 - sum of the others; the support leaves at least one basis
    # vector out, so p_other is always present
    sys_ = ModeSystem((1.0, 1.7)[: len(cutoffs)], cutoffs)
    dim = sys_.dimension
    support = data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 2))
    amps = [0j] * dim
    for k in support:
        amps[k] = data.draw(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), label=f"amp{k}"
        )
    cfg = load_config(
        None,
        {
            "scenario": "custom-state",
            "cutoffs": ",".join(map(str, cutoffs)),
            "omega": ",".join(map(str, sys_.omega)),
            "amplitudes": ",".join(map(repr, amps)),
        },
    )
    prep = _assemble(cfg)
    states = dense_states(kron_generator(prep.dyn), prep.psi0, np.linspace(0.0, 5.0, 7))
    got = read_channels(
        np.arange(dim), None, states, prep.psi0.amplitudes, prep.channels
    )
    del got["p_survival"]

    covered = np.zeros((dim, dim), dtype=complex)
    dense = {}
    for name in prep.channels:
        if name != "p_other":
            occ = tuple(int(o) for o in name[2:].split("_"))
            v = fock_ket(sys_, occ).amplitudes
            dense[name] = np.outer(v, v.conj())
            covered += dense[name]
    dense["p_other"] = np.eye(dim) - covered
    assert set(dense) == set(got)
    for name, p in dense.items():
        expected = np.einsum("it,it->t", states.conj(), p @ states).real
        np.testing.assert_allclose(got[name], expected, rtol=0.0, atol=1e-14)


def test_survival_closed_forms():
    _, psi0, dyn0 = two_level_setup(0.0, 1.0)
    t = np.linspace(0.0, 8.0, 81)
    s0 = survival_probability(dyn0, psi0, t)
    np.testing.assert_allclose(s0["p_survival"], 1.0, atol=1e-12)

    theta, gap = np.pi / 4, 1.3
    _, psi, dyn = two_level_setup(theta, gap)
    s = survival_probability(dyn, psi, t)
    expected = 1.0 - 0.5 * np.sin(gap * t / np.sqrt(2.0)) ** 2
    np.testing.assert_allclose(s["p_survival"], expected, atol=1e-10)
    np.testing.assert_allclose(
        s["p_survival"], two_level_survival(theta, gap, t), atol=1e-12
    )


def test_orthogonal_initial_state_survival_comparison_runs():
    """Non-eigenstate state orthogonal to the ground: record the deviation
    between modified and standard survival instead of assuming equality."""
    rng = np.random.default_rng(33)
    h, _ = random_eigen_system(rng, 6)
    amps = np.zeros(6, dtype=complex)
    amps[1:] = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi = Ket(amps)
    dyn = effective_dynamics([(np.diag(h), psi)])
    t = np.linspace(0.0, 20.0, 101)
    modified = survival_probability(dyn, psi, t)["p_survival"]
    evals, evecs = np.linalg.eigh(h)
    standard = np.array(
        [
            abs(
                np.vdot(
                    psi.amplitudes,
                    (evecs * np.exp(-1j * evals * tt)) @ evecs.conj().T @ psi.amplitudes,
                )
            )
            ** 2
            for tt in t
        ]
    )
    deviation = np.abs(modified - standard).max()
    assert np.isfinite(deviation)


# ------------------------------------------------------------- factorization


def test_product_rotation_factorizes_generator():
    n, m = 2, 3
    omega_a, omega_b = 1.0, np.sqrt(2.0)
    sys_a = ModeSystem((omega_a,), (n + 1,))
    sys_b = ModeSystem((omega_b,), (m + 1,))
    psi_a = superposition(sys_a, {(0,): 1.0, (n,): 1.0})
    psi_b = superposition(sys_b, {(0,): 1.0, (m,): 1.0})
    u_a = build_passive_unitary(decompose_against_ground(psi_a), sys_a)
    u_b = build_passive_unitary(decompose_against_ground(psi_b), sys_b)
    h_a = effective_hamiltonian(free_hamiltonian(sys_a), u_a)
    h_b = effective_hamiltonian(free_hamiltonian(sys_b), u_b)

    sys_ab = ModeSystem((omega_a, omega_b), (n + 1, m + 1))
    h_ab = effective_hamiltonian(free_hamiltonian(sys_ab), np.kron(u_a, u_b))
    split = np.kron(h_a, np.eye(len(h_b))) + np.kron(np.eye(len(h_a)), h_b)
    np.testing.assert_allclose(h_ab, split, atol=1e-12)
    # the factored generator is that Kronecker sum
    dyn_ab = effective_dynamics(
        [(free_energies(sys_a), psi_a), (free_energies(sys_b), psi_b)]
    )
    np.testing.assert_allclose(kron_generator(dyn_ab), h_ab, atol=1e-12)

    # probabilities factorize into the single-mode ones
    psi_ab = superposition(
        sys_ab, {(0, 0): 0.5, (0, m): 0.5, (n, 0): 0.5, (n, m): 0.5}
    )
    t = np.linspace(0.0, 9.0, 91)
    joint = evolve_probabilities(
        dyn_ab,
        psi_ab,
        {
            "p00": [flat_index(sys_ab, (0, 0))],
            "pn0": [flat_index(sys_ab, (n, 0))],
            "p0m": [flat_index(sys_ab, (0, m))],
            "pnm": [flat_index(sys_ab, (n, m))],
        },
        t,
    )
    pa = evolve_probabilities(
        whole_register(sys_a, psi_a),
        psi_a,
        {"p0": [flat_index(sys_a, (0,))], "pn": [flat_index(sys_a, (n,))]},
        t,
    )
    pb = evolve_probabilities(
        whole_register(sys_b, psi_b),
        psi_b,
        {"p0": [flat_index(sys_b, (0,))], "pm": [flat_index(sys_b, (m,))]},
        t,
    )
    np.testing.assert_allclose(joint["p00"], pa["p0"] * pb["p0"], atol=1e-9)
    np.testing.assert_allclose(joint["pnm"], pa["pn"] * pb["pm"], atol=1e-9)


# ------------------------------------------------------------- reduced route


def _assert_reduced_matches_dense(prep, u_p):
    """Every channel, n_expect and p_survival of the reduced route against the
    dense conjugation H - U_p^dag H U_p and its eigendecomposition."""
    sys_ = prep.system
    h_eff = effective_hamiltonian(free_hamiltonian(sys_), u_p)
    np.testing.assert_allclose(kron_generator(prep.dyn), h_eff, rtol=0.0, atol=1e-12)
    t = np.linspace(0.0, 7.0, 15)
    occupations = occupation_counts(sys_)
    got = evolve_probabilities(prep.dyn, prep.psi0, prep.channels, t, occupations)
    states = dense_states(h_eff, prep.psi0, t)
    expected = read_channels_per_channel(
        np.arange(sys_.dimension), states, prep.psi0.amplitudes, prep.channels,
        occupations,
    )
    assert got.keys() == expected.keys()
    for name, values in expected.items():
        bound = 1e-12 * np.maximum(1.0, np.abs(values))
        assert np.all(np.abs(got[name] - values) <= bound), name


@settings(max_examples=20, deadline=None)
@given(
    cutoffs=st.sampled_from([(3,), (9,), (63,), (1, 2), (3, 3), (7, 7), (3, 3, 3)]),
    full=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reduced_route_matches_dense_on_custom_states(cutoffs, full, seed, data):
    omega = (1.0, 1.3, 1.7)[: len(cutoffs)]
    sys_ = ModeSystem(omega, cutoffs)
    dim = sys_.dimension
    if full:
        support = np.arange(dim)
    else:
        drawn = data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=6))
        support = sorted(drawn)
    rng = np.random.default_rng(seed)
    amps = np.zeros(dim, dtype=complex)
    amps[support] = rng.uniform(0.1, 1.0, len(support)) * np.exp(
        2j * np.pi * rng.uniform(size=len(support))
    )
    cfg = load_config(
        None,
        {
            "scenario": "custom-state",
            "cutoffs": ",".join(map(str, cutoffs)),
            "omega": ",".join(map(str, omega)),
            "amplitudes": ",".join(map(repr, amps.tolist())),
        },
    )
    prep = _assemble(cfg)
    u_p = build_passive_unitary(decompose_against_ground(prep.psi0), sys_)
    _assert_reduced_matches_dense(prep, u_p)


@settings(max_examples=15, deadline=None)
@given(modes=st.integers(2, 3), data=st.data())
def test_reduced_route_matches_dense_on_products(modes, data):
    ns = [data.draw(st.integers(1, 3), label=f"n{i}") for i in range(modes)]
    cutoffs = [
        n + data.draw(st.integers(0, 2), label=f"c{i}") for i, n in enumerate(ns)
    ]
    omega = [data.draw(st.floats(0.3, 3.0), label=f"w{i}") for i in range(modes)]
    cfg = load_config(
        None,
        {
            "scenario": "multimode-product",
            "ns": ",".join(map(str, ns)),
            "cutoffs": ",".join(map(str, cutoffs)),
            "omega": ",".join(map(repr, omega)),
        },
    )
    prep = _assemble(cfg)
    u_p = None
    for n, w, c in zip(ns, omega, cutoffs):
        sub = ModeSystem((w,), (c,))
        dec = decompose_against_ground(superposition(sub, {(0,): 1.0, (n,): 1.0}))
        u = build_passive_unitary(dec, sub)
        u_p = u if u_p is None else np.kron(u_p, u)
    _assert_reduced_matches_dense(prep, u_p)


@pytest.mark.parametrize("n, m, cutoffs", [(1, 1, (2, 2)), (2, 3, (3, 4))])
def test_product_generator_moves_an_entangled_state_on_its_rows(n, m, cutoffs):
    # per-mode (|0> + |n>)/sqrt(2) rotations drive (|0,0> + |n,m>)/sqrt(2),
    # whose support is not a product set: psi(t) also fills |n,0> and |0,m>
    omega = (1.0, 1.7)
    sys_ = ModeSystem(omega, cutoffs)
    factors = []
    for w, c, k in zip(omega, cutoffs, (n, m)):
        sub = ModeSystem((w,), (c,))
        factors.append((free_energies(sub), superposition(sub, {(0,): 1.0, (k,): 1.0})))
    dyn = effective_dynamics(factors)
    psi0 = superposition(sys_, {(0, 0): 1.0, (n, m): 1.0})
    ends = [flat_index(sys_, (0, 0)), flat_index(sys_, (n, m))]
    channels = {
        "p_0_0": ends[:1],
        "p_n_m": ends[1:],
        "p_other": np.setdiff1d(np.arange(sys_.dimension), ends),
    }
    occupations = occupation_counts(sys_)
    t = np.linspace(0.0, 7.0, 15)
    got = evolve_probabilities(dyn, psi0, channels, t, occupations)
    dense = dense_states(kron_generator(dyn), psi0, t)
    expected = read_channels_per_channel(
        np.arange(sys_.dimension), dense, psi0.amplitudes, channels, occupations
    )
    assert got.keys() == expected.keys()
    assert expected["p_other"].max() > 0.1
    for name, values in expected.items():
        bound = 1e-12 * np.maximum(1.0, np.abs(values))
        assert np.all(np.abs(got[name] - values) <= bound), name
    rk4 = rk4_expectation_series(
        dyn, psi0, channels, t, occupations, omega_max=max(omega)
    )
    for name, values in expected.items():
        assert np.abs(rk4[name] - values).max() <= TOL_RK4, name
    rows, basis, _ = _reduced_states(dyn, psi0.amplitudes, t)
    assert basis is None
    corners = [flat_index(sys_, (a, b)) for a in (0, n) for b in (0, m)]
    np.testing.assert_array_equal(rows, sorted(corners))
    assert np.abs(np.delete(dense, rows, axis=0)).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["sparse", "full", "entangled"]),
    route=st.sampled_from(["exponential", "rk4"]),
    data=st.data(),
)
def test_basis_coefficient_readout_matches_the_dense_oracle(kind, route, data):
    # every channel, n_expect and p_survival of psi(t) = B C(t), read in
    # tiles of one row up to all rows, against exp(-i H_eff t) psi0 read by
    # the per-channel oracle; channels cut a shuffled register, so some of
    # them hold several indices
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def amplitudes(size):
        phases = np.exp(2j * np.pi * rng.uniform(size=size))
        return rng.uniform(0.1, 1.0, size) * phases

    if kind == "entangled":
        # per-mode rotations, psi0 on |0,0> and |n,m> only
        n = data.draw(st.integers(1, 2), label="n")
        m = data.draw(st.integers(1, 3), label="m")
        sys_ = ModeSystem((1.0, 1.7), (n + 1, m + 1))
        factors = []
        for w, c, k in zip(sys_.omega, sys_.cutoff, (n, m)):
            sub = ModeSystem((w,), (c,))
            mode_state = superposition(sub, {(0,): 1.0, (k,): 1.0})
            factors.append((free_energies(sub), mode_state))
        dyn = effective_dynamics(factors)
        a, b = amplitudes(2)
        psi0 = superposition(sys_, {(0, 0): a, (n, m): b})
    else:
        cutoffs = data.draw(st.sampled_from([(5,), (9,), (2, 3), (3, 3), (2, 2, 2)]))
        sys_ = ModeSystem((1.0, 1.3, 1.7)[: len(cutoffs)], cutoffs)
        support = np.arange(sys_.dimension)
        if kind == "sparse":
            drawn = st.sets(st.integers(0, sys_.dimension - 1), min_size=1, max_size=6)
            support = sorted(data.draw(drawn, label="support"))
        amps = np.zeros(sys_.dimension, dtype=complex)
        amps[support] = amplitudes(len(support))
        psi0 = Ket(amps)
        dyn = whole_register(sys_, psi0)
    dim = sys_.dimension
    order = data.draw(st.permutations(range(dim)), label="order")
    cuts = data.draw(st.lists(st.integers(1, dim - 1), max_size=4), label="cuts")
    bounds = zip([0, *sorted(cuts)], [*sorted(cuts), dim])
    channels = {f"c{i}": order[lo:hi] for i, (lo, hi) in enumerate(bounds)}
    assert max(map(len, channels.values())) >= 2
    occupations = occupation_counts(sys_)
    t = np.linspace(0.0, 6.0, 13)
    tile = data.draw(st.integers(1, dim * t.size), label="tile entries")
    with mock.patch.object(dynamics, "_TILE_ENTRIES", tile):
        if route == "rk4":
            got = rk4_expectation_series(dyn, psi0, channels, t, occupations)
        else:
            got = evolve_probabilities(dyn, psi0, channels, t, occupations)
    expected = read_channels_per_channel(
        np.arange(dim), dense_states(kron_generator(dyn), psi0, t), psi0.amplitudes,
        channels, occupations,
    )
    assert got.keys() == expected.keys()
    tol = 1e-12 if route == "exponential" else TOL_RK4
    for name, values in expected.items():
        bound = tol * np.maximum(1.0, np.abs(values))
        assert np.all(np.abs(got[name] - values) <= bound), name


def test_corrupted_subspace_trips_the_leakage_gate():
    sys_ = ModeSystem((1.0, 1.3), (3, 3))
    psi = superposition(sys_, {(0, 0): 0.6, (1, 2): 0.5j, (3, 1): 0.4})
    (factor,) = whole_register(sys_, psi).factors
    assert factor.basis.shape[1] == 3
    _projected_block(factor.apply, factor.basis, factor.scale)
    # tilt the excited direction by 1e-6 toward a basis vector H_eff leaves alone
    bad = factor.basis.copy()
    bad[flat_index(sys_, (2, 2)), 1] = 1e-6
    bad, _ = np.linalg.qr(bad)
    with pytest.raises(ValueError, match="leaks out of its invariant subspace"):
        _projected_block(factor.apply, bad, factor.scale)


def test_generator_gates_fail_a_nan():
    # a NaN deviation must fail the gates, not slip past a ">" comparison
    with pytest.raises(ValueError, match="not Hermitian"):
        _projected_block(lambda x: np.full(x.shape, np.nan), np.eye(3, 2), 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), with_occupations=st.booleans())
def test_read_channels_matches_the_per_channel_readout(data, with_occupations):
    # bit for bit: the one-search readout adds a channel's hits in the order
    # of its indices, as the per-channel sum does.  Disjoint channels over a
    # random cut of a shuffled register: some indices in no channel, some
    # off the rows, channels with no row, one row or several
    dim = data.draw(st.integers(1, 30), label="dim")
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, dim - 1), min_size=1))))
    steps = data.draw(st.integers(2, 5), label="steps")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (rows.size, steps)
    # magnitudes over eight decades, so a change of summation order shows
    states = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** (
        rng.uniform(-4.0, 4.0, size=(rows.size, 1))
    )
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    order = data.draw(st.permutations(range(dim)), label="order")
    cuts = sorted(data.draw(st.lists(st.integers(0, dim), max_size=6), label="cuts"))
    kept = data.draw(st.lists(st.booleans(), min_size=len(cuts) + 1,
                              max_size=len(cuts) + 1), label="kept")
    channels = {
        f"c{i}": order[a:b] if i % 2 else np.array(order[a:b], dtype=int)
        for i, (a, b) in enumerate(zip([0, *cuts], [*cuts, dim]))
        if kept[i]
    }
    occupations = rng.integers(0, 30, size=dim) * 1.0 if with_occupations else None
    # tiles of two rows up to all of them
    tile = data.draw(st.integers(1, rows.size * steps), label="tile entries")
    with mock.patch.object(dynamics, "_TILE_ENTRIES", tile):
        got = read_channels(rows, None, states, psi0, channels, occupations)
    expected = read_channels_per_channel(rows, states, psi0, channels, occupations)
    assert list(got) == list(expected)
    for name, values in expected.items():
        assert np.array_equal(got[name], values), name


@settings(max_examples=300, deadline=None)
@given(count=st.integers(0, 60), steps=st.integers(1, 5000),
       entries=st.integers(1, 1 << 16))
def test_tiles_cover_every_row_once_in_tiles_of_two_rows_or_more(count, steps, entries):
    with mock.patch.object(dynamics, "_TILE_ENTRIES", entries):
        tiles = _tiles(count, steps)
    assert [i for tile in tiles for i in range(count)[tile]] == list(range(count))
    sizes = [tile.stop - tile.start for tile in tiles]
    if count >= 2:
        assert min(sizes) >= 2
    # within _TILE_ENTRIES, or of at most three rows where two hold more
    assert all(size * steps <= max(entries, 3 * steps) for size in sizes)
    assert _tiles(0, steps) == []


@pytest.mark.parametrize("route", ["exponential", "rk4"])
def test_populations_keep_their_bits_at_every_tile_size(route):
    # |B[S] C|^2 is one BLAS product per tile, over two rows or more and
    # every time, so the populations round the same in any tile
    sys_ = ModeSystem((1.0, 1.3, 1.7), (4, 4, 4))
    rng = np.random.default_rng(23)
    psi0 = Ket(rng.normal(size=sys_.dimension) + 1j * rng.normal(size=sys_.dimension))
    dyn = whole_register(sys_, psi0)
    channels = {f"p_{k}": [k] for k in range(sys_.dimension)}
    channels["p_pairs"] = np.arange(0, sys_.dimension, 7)
    t = np.linspace(0.0, 6.0, 301)
    evolve = rk4_expectation_series if route == "rk4" else evolve_probabilities
    base = evolve(dyn, psi0, channels, t)
    # the B C path: a basis, not the states on the rows
    assert _reduced_states(dyn, psi0.amplitudes, t)[1] is not None
    for entries in (1, 2 * t.size, 3 * t.size + 1, 40 * t.size, sys_.dimension * t.size):
        with mock.patch.object(dynamics, "_TILE_ENTRIES", entries):
            got = evolve(dyn, psi0, channels, t)
        for name in channels:
            assert np.array_equal(got[name], base[name]), (entries, name)


def test_state_outside_the_subspace_trips_the_frozen_complement_gate():
    sys_ = ModeSystem((1.0,), (4,))
    psi = superposition(sys_, {(0,): 1.0, (2,): 1.0})
    dyn = whole_register(sys_, psi)
    (factor,) = dyn.factors
    # keep only the ground direction: the excited part of psi then moves
    factor.basis = factor.basis[:, :1]
    factor.block = factor.block[:1, :1]
    with pytest.raises(ValueError, match="outside the invariant subspace moves"):
        survival_probability(dyn, psi, np.linspace(0.0, 1.0, 3))
    assert LEAKAGE_TOL == 1e-12


# ------------------------------------------------------------- Dyson


def test_dyson_zero_eps_is_free_propagator():
    rng = np.random.default_rng(4)
    m0 = rng.normal(size=(4, 4))
    m0 = m0 + m0.T
    m1 = rng.normal(size=(4, 4))
    m1 = m1 + m1.T
    t = np.linspace(0.0, 3.0, 41)
    out = first_order_dyson(m0, m1, 0.0, t)
    for k, tt in enumerate(t):
        np.testing.assert_allclose(out[k], expm(-1j * m0 * tt), atol=1e-10)


def test_dyson_residual_quadratic_in_eps():
    rng = np.random.default_rng(9)
    m0 = rng.normal(size=(3, 3))
    m0 = m0 + m0.T
    m1 = rng.normal(size=(3, 3))
    m1 = m1 + m1.T
    t = np.linspace(0.0, 4, 201)

    def residual(eps):
        approx = first_order_dyson(m0, m1, eps, t)
        worst = 0.0
        for k, tt in enumerate(t):
            exact = expm(-1j * (m0 + eps * m1) * tt)
            worst = max(worst, np.abs(approx[k] - exact).max())
        return worst

    ratio = residual(1e-2) / residual(1e-3)
    assert 50 <= ratio <= 200


def test_dyson_rejects_odd_interval_count():
    m = np.eye(2)
    with pytest.raises(GridError):
        first_order_dyson(m, m, 0.1, np.linspace(0.0, 1.0, 4))


# ------------------------------------------------------------- TimeSeries


def test_timeseries_partition_validation():
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(
        ValueError, match=re.escape("partition ('a', 'b') sums to 1 +/- 0.1 (> 1e-9)")
    ):
        TimeSeries(
            t,
            {"a": [0.5, 0.5, 0.5], "b": [0.4, 0.5, 0.5]},
            probability_channels=("a", "b"),
            partitions=(("a", "b"),),
        )
    with pytest.raises(
        ValueError,
        match=re.escape("probability channel 'a' leaves [0,1]: range [0.5, 1.5]"),
    ):
        TimeSeries(t, {"a": [1.5, 0.5, 0.5]}, probability_channels=("a",))
    ok = TimeSeries(
        t,
        {"a": [0.5, 0.4, 0.3], "b": [0.5, 0.6, 0.7]},
        probability_channels=("a", "b"),
        partitions=(("a", "b"),),
    )
    assert ok.column_names() == ["a", "b"]


def test_timeseries_rejects_nan():
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(
        ValueError, match=re.escape("probability channel 'a' leaves [0,1]: range [")
    ):
        TimeSeries(t, {"a": [0.5, np.nan, 0.5]}, probability_channels=("a",))
    with pytest.raises(
        ValueError, match=re.escape("partition ('a',) sums to 1 +/- nan (> 1e-9)")
    ):
        TimeSeries(t, {"a": [1.0, np.nan, 1.0]}, partitions=(("a",),))


def test_timeseries_checks_a_table_of_channels_without_copying_it():
    # 1333 channels over 501 times, rows of one table as a route returns
    # them: the checks read the table where it is (a copy would be 5.3 MB)
    rng = np.random.default_rng(18)
    table = rng.uniform(size=(1333, 501))
    table /= table.sum(axis=0)
    channels = dict(zip((f"p_{k}" for k in range(1333)), table))
    channels["p_survival"] = rng.uniform(size=501)
    t = np.linspace(0.0, 1.0, 501)
    partitions = [tuple(channels)[:-1]]
    TimeSeries(t, channels, probability_channels=set(channels), partitions=partitions)
    tracemalloc.start()
    try:
        series = TimeSeries(
            t, channels, probability_channels=set(channels), partitions=partitions
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(series.channels[n] is v for n, v in channels.items())
    assert peak < 0.05 * table.nbytes


def test_timeseries_finds_the_failing_row_of_a_table():
    # a table that leaves [0, 1] is searched row by row; a partition whose
    # sum holds but which has a negative entry is searched too
    t = np.linspace(0.0, 1.0, 3)
    table = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0]])
    names = ("a", "b", "c")
    TimeSeries(t, dict(zip(names, table)), probability_channels=names,
               partitions=(names,))
    table[1, 2], table[2, 2] = 1.5, -1.0
    with pytest.raises(
        ValueError,
        match=re.escape("probability channel 'b' leaves [0,1]: range [0.5, 1.5]"),
    ):
        TimeSeries(t, dict(zip(names, table)), probability_channels=names,
                   partitions=(names,))
    table[1, 2], table[2, 2] = 0.5 + 1e-10, -1e-10
    series = TimeSeries(t, dict(zip(names, table)), probability_channels=names,
                        partitions=(names,))
    assert series.channels["c"][2] == -1e-10
    table[2, 2] = -2e-9
    with pytest.raises(ValueError, match=re.escape("channel 'c' leaves [0,1]")):
        TimeSeries(t, dict(zip(names, table)), probability_channels=names,
                   partitions=(names,))


def test_timeseries_range_check_comes_before_the_partition_check():
    # a partition channel that leaves [0, 1] is named, though its group
    # fails too; a partition channel that is no probability channel is not
    t = np.linspace(0.0, 1.0, 3)
    channels = {"a": [1.5, 1.5, 1.5], "b": [0.5, 0.5, 0.5]}
    with pytest.raises(ValueError, match=re.escape("channel 'a' leaves [0,1]")):
        TimeSeries(t, channels, probability_channels=("a",), partitions=(("a", "b"),))
    with pytest.raises(
        ValueError, match=re.escape("partition ('a', 'b') sums to 1 +/- 1 ")
    ):
        TimeSeries(t, channels, probability_channels=("b",), partitions=(("a", "b"),))


@pytest.mark.parametrize("hash_seed", ["1", "6"])
def test_timeseries_names_the_first_failing_channel_in_column_order(hash_seed):
    # two probability channels outside every partition fail: the series
    # names the first column, whatever order a set iterates in
    script = (
        "import numpy as np\n"
        "from ergodyn.dynamics import TimeSeries\n"
        "t = np.linspace(0.0, 1.0, 3)\n"
        "channels = {'std_p_survival': [-0.5, 0.0, 0.5],\n"
        "            'p_survival': [0.5, 1.0, 1.5]}\n"
        "try:\n"
        "    TimeSeries(t, channels, probability_channels=set(channels))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == (
        "probability channel 'std_p_survival' leaves [0,1]: range [-0.5, 0.5]\n"
    )
