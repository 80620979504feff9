"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion returns a :class:`CriterionResult`; ``run_all`` prints one
pass/fail line per criterion, and is what ``ergodyn selftest`` executes.
Criteria 1 and 3-8 are rows: config overrides, run by ``run_scenario`` as
``ergodyn run`` runs them, and what is read from each ``(series, summary)``
with its bound.  A closed form is checked by the run's own
``analytic_vs_exponential`` residual, over every channel, ``n_expect`` and
``p_survival``, so the survival closed form is criterion 1's (there is no
criterion 2).  A value that is NaN or missing fails.  Criterion 11 runs
states through ``compare``; 9, 10 and 12 check the measures, passivity and
the generator on random instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from . import dynamics, oracles
from .errors import ErgodynError
from .fock import Ket, ModeSystem, superposition
from .measures import l1_coherence, negativity
from .passive import decompose_against_ground
from .scenarios import _assemble, load_config, run_scenario


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str


def _result(number, title, checks):
    """The result of ``(what, value, bound)`` checks: each value at or under
    its bound, or within it when the bound is a (low, high) pair; NaN fails."""
    shown, failed = [], []
    for what, value, bound in checks:
        lo, hi = bound if isinstance(bound, tuple) else (-math.inf, bound)
        shown.append(f"{what} {value:.3g}")
        if not lo <= value <= hi:
            failed.append(f"{what} outside {bound}")
    detail = ", ".join(shown) + (" | FAILED: " + "; ".join(failed) if failed else "")
    return CriterionResult(number, title, not failed, detail)


def _run(overrides: dict):
    """(series, summary) of one run of a named scenario, not strict."""
    return run_scenario(load_config(None, {"engine": "all", **overrides}), strict=False)


def _each(read):
    """runs -> the largest ``read(series, summary)`` over them, NaN if one is."""
    return lambda runs: float(np.max([read(*run) for run in runs]))


def _residual(pair):
    # a route that did not run leaves no residual, and NaN fails every bound
    return _each(lambda _, summary: summary["residuals"].get(pair, math.nan))


def _unit_sum(series, _):
    """|sum of the probability channels - 1|, largest over the grid."""
    ch = series.channels
    total = sum(ch[k] for k in ch if k.startswith("p_") and k != "p_survival")
    return np.abs(total - 1.0).max()


def _row(name, title, runs, *reads):
    """Criterion ``name``: make ``runs`` (config overrides), and check the
    value of each ``(what, runs -> value, bound)`` of ``reads``."""
    number = int(name.split("_")[1])

    def criterion():
        try:
            results = [_run(overrides) for overrides in runs]
        except (ValueError, ErgodynError) as exc:
            return CriterionResult(number, title, False, f"FAILED: a run raised {exc}")
        return _result(number, title, [(w, read(results), b) for w, read, b in reads])

    criterion.__name__ = name
    return criterion


_ANALYTIC = "analytic_vs_exponential"
_closed_form = _residual(_ANALYTIC)
#: single-mode-superposition at n = 1, omega = gap, over 20 pi / (sin(theta) gap)
_QUBITS = [
    {"scenario": "single-mode-superposition", "n": 1, "cutoffs": (1,), "omega": (gap,),
     "theta": theta, "t_max": 20 * math.pi / (math.sin(theta) * gap), "steps": 2001}
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3) for gap in (0.5, 1.0, 2.0)]
_PAIR = {"n": 2, "m": 3, "omega_a": 1.0, "omega_b": math.sqrt(2.0)}
_SEPARABLE = {"scenario": "two-mode-separable", **_PAIR, "t_max": 9, "steps": 2001}
_COLLECTIVE = (2 * 1.0 + 3 * math.sqrt(2.0)) / math.sqrt(2.0)  # (n wa + m wb) / sqrt 2
_ASYMMETRY = 1e-2 * 1e5 / 6.371e6**2  # r_S L / r_E^2 of the bundled constants


def _split_deviation(_):
    """The separable pair's generator against the dense conjugation by U_a x U_b."""
    n, m, omega_a, omega_b = _PAIR.values()
    u_p = np.eye(1)
    for w, k in ((omega_a, n), (omega_b, m)):
        sub = ModeSystem((w,), (k + 1,))
        dec = decompose_against_ground(superposition(sub, {(0,): 1.0, (k,): 1.0}))
        u_p = np.kron(u_p, oracles.build_passive_unitary(dec, sub))
    h = oracles.free_hamiltonian(ModeSystem((omega_a, omega_b), (n + 1, m + 1)))
    dense = dynamics.effective_hamiltonian(h, u_p)
    dyn = _assemble(load_config(None, _SEPARABLE)).dyn
    return np.abs(oracles.kron_generator(dyn) - dense).max()


def _rate(series):
    """Angular rate of the sin^2 oscillation of p_0_0 via the spectrum peak."""
    t, signal = series.times, series.channels["p_0_0"]
    spectrum = np.abs(np.fft.rfft(signal - signal.mean()))
    peak = np.fft.rfftfreq(t.size, d=t[1] - t[0])[int(np.argmax(spectrum[1:])) + 1]
    return math.pi * peak  # sin^2 oscillates at twice the base rate


def criterion_09_measures_and_rates():
    """Coherence, negativity and the coherence form of the oscillation rate."""
    sys_ = ModeSystem((1.0, 1.5), (2, 3))
    worst_c, worst_n = 0.0, 0.0
    for theta in np.linspace(0.0, math.pi / 2, 9):
        psi = superposition(sys_, {(0, 0): math.cos(theta), (2, 3): math.sin(theta)})
        c = abs(math.sin(2 * theta))
        worst_c = max(worst_c, abs(l1_coherence(psi) - c))
        worst_n = max(worst_n, abs(negativity(psi, sys_) - 0.5 * c))

    def rate_gap(theta, gap=1.7):
        c = abs(math.sin(2 * theta))
        return abs(cf.oscillation_frequency(theta, gap)
                   - cf.oscillation_frequency_from_coherence(c, gap))

    return _result(9, "coherence and entanglement measures", [
        ("coherence deviation", worst_c, 1e-12),
        ("negativity deviation", worst_n, 1e-12),
        ("rate identity deviation", max(map(rate_gap, np.linspace(0, math.pi / 4, 26))),
         1e-12),
        # past pi/4 the coherence form takes the cos(theta) branch
        ("branch mismatch at 3 pi/8", rate_gap(3 * math.pi / 8), (1e-3, math.inf)),
    ])


def criterion_10_passivity():
    """Passive rearrangement is the exact permutation optimum."""
    rng = np.random.default_rng(1234)
    worst_gap, undercut = 0.0, -math.inf
    for _ in range(100):
        dim = int(rng.integers(4, 7))
        levels = np.cumsum(rng.uniform(0.1, 1.0, dim))
        h = np.diag(levels)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = oracles.DensityOperator((z @ z.conj().T) / np.trace(z @ z.conj().T).real)
        energy = float(np.trace(oracles.passive_state(rho, h).matrix @ h).real)
        pops = np.linalg.eigvalsh(rho.matrix)
        perms = np.array(list(itertools.permutations(range(dim))))
        worst_gap = max(worst_gap, abs(energy - (pops[perms] @ levels).min()))
        z = rng.normal(size=(1000, dim, dim)) + 1j * rng.normal(size=(1000, dim, dim))
        qs, _ = np.linalg.qr(z)
        # h is diagonal: the energy of q rho q' is sum_i levels_i (q rho q')_ii
        energies = ((qs @ rho.matrix) * qs.conj()).sum(axis=2).real @ levels
        undercut = max(undercut, energy - energies.min())
    return _result(10, "mixed-state passivity optimum", [
        ("gap to the permutation minimum over 100 states", worst_gap, 1e-12),
        ("passive minus least of 1000 conjugated energies", undercut, 1e-12),
    ])


def criterion_11_orthogonal_survival_comparison():
    """Record how modified and standard survival differ for theta = pi/2, the
    states run through compare, and hold its standard survival to a phase sum."""
    rng = np.random.default_rng(4321)
    standard_dev, deviations = [], []
    for _ in range(20):
        modes = int(rng.integers(2, 4))
        omega = rng.uniform(0.3, 3.0, modes)  # incommensurate
        amps = rng.normal(size=3**modes) + 1j * rng.normal(size=3**modes)
        amps[0] = 0.0  # no ground component: theta = pi/2
        series, _ = run_scenario(load_config(None, {
            "scenario": "custom-state", "cutoffs": (2,) * modes, "omega": omega,
            "amplitudes": amps, "engine": "exponential", "comparison": True,
            "t_max": 25.0, "steps": 200}))
        # H is diagonal: the unmodified survival is a pure phase sum
        levels = np.indices((3,) * modes).reshape(modes, -1).T @ omega
        weights = np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2)
        standard = np.abs(np.exp(-1j * np.outer(series.times, levels)) @ weights) ** 2
        standard_dev.append(np.abs(series.channels["std_p_survival"] - standard).max())
        deviations.append(np.abs(series.channels["delta_p_survival"]).max())
    # recorded only: equal survival does not hold off the energy eigenstates
    return _result(11, "orthogonal-state survival comparison", [
        ("standard survival vs phase sum", np.max(standard_dev), 1e-12),
        ("recorded max |modified - standard|", np.max(deviations), math.inf),
        ("median", np.median(deviations), math.inf),
    ])


def _states(dyn, psi, grid):
    """psi(t) from the reduced route, basis states by the times of ``grid``."""
    rows, basis, coeffs = dynamics._reduced_states(dyn, psi.amplitudes, grid)
    out = np.zeros((psi.dimension, grid.size), dtype=complex)
    out[rows] = coeffs if basis is None else basis @ coeffs
    return out


def criterion_12_structural_properties():
    """Unitarity, tracelessness, frozen ground state, stationarity, the two generator
    expansions, and the reduced route against the dense one, on random instances."""
    rng = np.random.default_rng(777)
    bounds = {"unitarity": 1e-11, "trace": 1e-10, "frozen ground state": 0.0,
              "stationarity": 1e-10, "equivalence": 1e-10, "reduced vs dense": 1e-12}
    dev = {k: [] for k in bounds}
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        levels = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 3.0, dim - 1))])
        h = np.diag(levels)
        sys_ = ModeSystem((1.0,), (dim - 1,))
        psi = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        dec = decompose_against_ground(psi)
        u_p = oracles.build_passive_unitary(dec, sys_)
        h_eff = dynamics.effective_hamiltonian(h, u_p)
        t = float(rng.uniform(0.1, 8.0))
        u = oracles.propagator(h_eff, t)
        dev["unitarity"].append(np.abs(u @ u.conj().T - np.eye(dim)).max())
        dev["trace"].append(abs(np.trace(h_eff)) / dim)
        g = oracles.expanded_generator(h, dec)
        dev["equivalence"].append(np.abs(g + h_eff).max())
        grid = np.linspace(0.0, t, 9)
        reduced = _states(dynamics.effective_dynamics([(levels, psi)]), psi, grid)
        dense = [oracles.propagator(h_eff, s) @ psi.amplitudes for s in grid]
        dev["reduced vs dense"].append(np.abs(reduced.T - dense).max())
        # an excited eigenstate stays put
        k = int(rng.integers(1, dim))
        eig = oracles.fock_ket(sys_, (k,))
        p = dynamics.evolve_probabilities(
            dynamics.effective_dynamics([(levels, eig)]), eig, {"p": [k]},
            np.linspace(0, 10, 21))["p"]
        dev["stationarity"].append(np.abs(p - 1.0).max())
        # the ground state does not evolve at all: every entry below is exact
        vac = oracles.vacuum_ket(sys_)
        u_g = oracles.build_passive_unitary(decompose_against_ground(vac), sys_)
        h_eff_g = dynamics.effective_hamiltonian(h, u_g)
        dyn_g = dynamics.effective_dynamics([(levels, vac)])
        dev["frozen ground state"].append(max(
            np.abs(h_eff_g).max(), np.abs(oracles.kron_generator(dyn_g)).max(),
            np.abs(oracles.propagator(h_eff_g, t) - np.eye(dim)).max(),
            np.abs(_states(dyn_g, vac, grid) - vac.amplitudes[:, None]).max(),
        ))
    return _result(12, "structural properties on random instances",
                   [(k, np.max(v), bounds[k]) for k, v in dev.items()])


#: criteria 1 and 3-8, on named-scenario runs
ROWS = (
    _row("criterion_01_two_level_triangle", "two-level probability triangle", _QUBITS,
         (_ANALYTIC, _closed_form, 1e-10),
         ("exponential_vs_rk4", _residual("exponential_vs_rk4"), 1e-8),
         ("|sum p - 1|", _each(_unit_sum), 1e-12)),
    _row("criterion_03_full_fock_single_mode", "full-space balanced single mode",
         [{"scenario": "single-mode-superposition", "n": 3, "omega": (1.0,),
           "t_max": 20, "steps": 2001, "comparison": True}],
         (_ANALYTIC, _closed_form, 1e-9),
         # unmodified dynamics keeps both populations pinned at 1/2
         ("|std_p_3 - 1/2|",
          _each(lambda s, _: np.abs(s.channels["std_p_3"] - 0.5).max()), 1e-12)),
    _row("criterion_04_two_mode_products", "separable two-mode products", [_SEPARABLE],
         (_ANALYTIC, _closed_form, 1e-9),
         ("|sum p - 1|", _each(_unit_sum), 1e-12),
         ("tensor-split deviation", _split_deviation, 1e-12)),
    _row("criterion_05_entangled_pair", "entangled pair collective oscillation",
         [{"scenario": "entangled-noon", **_PAIR, "t_max": 40, "steps": 4001}],
         (_ANALYTIC, _closed_form, 1e-9),
         # within 5% of 4.414 is at least 39% from the separable rates sqrt 2, 3
         ("rate error vs collective",
          _each(lambda s, _: abs(_rate(s) - _COLLECTIVE) / _COLLECTIVE), 0.05)),
    _row("criterion_06_degenerate_interferometer", "degenerate interferometer is static",
         [{"scenario": "moon-degenerate", "M": 2, "N": 1, "omega_a": 1.0,
           "omega_b": 2.0, "phi": math.pi / 3, "t_max": 50, "steps": 2001}],
         ("channel drift", _each(lambda s, _: max(
             np.abs(v - v[0]).max() for v in s.channels.values())), 1e-10)),
    # the first-order closed form's residual scales as the detuning squared
    _row("criterion_07_perturbative_interferometer", "perturbative interferometer scaling",
         [{"scenario": "moon-perturbative", "N": 2, "phi": math.pi / 3, "eps": eps,
           "t_max": 2.0 * math.pi, "steps": 801} for eps in (1e-2, 1e-3)],
         ("residual ratio eps 1e-2 / 1e-3",
          lambda runs: _closed_form(runs[:1]) / _closed_form(runs[1:]), (50.0, 200.0)),
         ("residual at eps 1e-3", lambda runs: _closed_form(runs[1:]), 1e-5)),
    _row("criterion_08_gravitational_asymmetry", "gravitational arm asymmetry",
         [{"scenario": "gravitational-mzi", "N": 1, "omega_0": 1.0, "steps": 2001}],
         ("asymmetry vs r_S L / r_E^2, relative", _each(lambda _, m: abs(
             m.get("asymmetry_amplitude", math.nan) - _ASYMMETRY) / _ASYMMETRY), 0.01),
         # a rough 4.2e-11 sometimes quoted for these inputs is not reproduced
         ("closed form vs 2.4637e-11, relative", _each(lambda _, m: abs(
             m.get("asymmetry_closed_form", math.nan) - 2.4637e-11) / 2.4637e-11),
          1e-3)),
)
CRITERIA = (
    *ROWS,
    criterion_09_measures_and_rates,
    criterion_10_passivity,
    criterion_11_orthogonal_survival_comparison,
    criterion_12_structural_properties,
)


def run_all(verbose: bool = True) -> bool:
    """Run every criterion; print one line each; True iff all passed."""
    all_ok = True
    for criterion in CRITERIA:
        res = criterion()
        all_ok &= res.passed
        if verbose:
            status = "PASS" if res.passed else "FAIL"
            print(f"{status} criterion {res.number:2d} ({res.title}): {res.detail}")
    return all_ok
