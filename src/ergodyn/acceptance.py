"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion returns a :class:`CriterionResult`; ``run_all`` prints one
pass/fail line per criterion.  The suite is what ``ergodyn selftest``
executes and what tests/test_acceptance.py wraps.  The criteria on named
scenarios (1-8) take their series from the pipeline users run,
:func:`scenarios.load_config` and :func:`scenarios.run_scenario`, and hold
them against closed forms and the dense oracles of :mod:`ergodyn.oracles`;
criteria 9-12 check the measures, passivity and the generator on random
instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from .dynamics import (
    _reduced_states,
    effective_dynamics,
    effective_hamiltonian,
    evolve_probabilities,
    survival_probability,
)
from .fock import Ket, ModeSystem, superposition
from .measures import BipartitionSpec, l1_coherence, negativity
from .oracles import (
    DensityOperator,
    build_passive_unitary,
    expanded_generator,
    fock_ket,
    free_hamiltonian,
    kron_generator,
    passive_state,
    propagator,
    vacuum_ket,
)
from .passive import decompose_against_ground
from .scenarios import _assemble, load_config, run_scenario


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str


def _result(number, title, checks, detail):
    failed = [msg for ok, msg in checks if not ok]
    if failed:
        detail = detail + " | FAILED: " + "; ".join(failed)
    return CriterionResult(number, title, not failed, detail)


def _scenario(scenario, engine="exponential", **overrides):
    """Config of a named scenario with the given overrides."""
    entries = {"scenario": scenario, "engine": engine, **overrides}
    return load_config(None, {k: str(v) for k, v in entries.items()})


def _qubit_runs(engine):
    """(theta, gap, series, summary) of single-mode-superposition with n = 1
    at omega = gap, over 20 pi / (sin(theta) gap), for each case."""
    for theta, gap in itertools.product(
        (math.pi / 6, math.pi / 4, math.pi / 3), (0.5, 1.0, 2.0)
    ):
        cfg = _scenario(
            "single-mode-superposition", engine, n=1, cutoffs=1, omega=gap,
            theta=theta, t_max=20.0 * math.pi / (math.sin(theta) * gap), steps=2001,
        )
        yield (theta, gap, *run_scenario(cfg, strict=False))


def criterion_01_two_level_triangle():
    """Closed form, exponential and RK4 agree on the two-level block."""
    worst_ae, worst_er, worst_sum = 0.0, 0.0, 0.0
    for theta, gap, series, summary in _qubit_runs("all"):
        p0, pe = series.channels["p_0"], series.channels["p_1"]
        a0, ae = cf.two_level_probabilities(theta, gap, series.times)
        dev_ae = max(np.abs(p0 - a0).max(), np.abs(pe - ae).max())
        dev_er = summary["residuals"]["exponential_vs_rk4"]
        dev_sum = np.abs(p0 + pe - 1.0).max()
        worst_ae, worst_er = max(worst_ae, dev_ae), max(worst_er, dev_er)
        worst_sum = max(worst_sum, dev_sum)
    checks = [
        (worst_ae <= 1e-10, f"analytic vs exponential {worst_ae:.2e}"),
        (worst_er <= 1e-8, f"exponential vs RK4 {worst_er:.2e}"),
        (worst_sum <= 1e-12, f"partition deviation {worst_sum:.2e}"),
    ]
    return _result(1, "two-level probability triangle", checks,
                   f"max |analytic-exp| {worst_ae:.2e}, |exp-RK4| {worst_er:.2e}, "
                   f"|p0+pe-1| {worst_sum:.2e}")


def criterion_02_survival_closed_form():
    """Propagator survival matches 1 - cos^2 sin^2(sin(theta) gap t)."""
    worst = 0.0
    for theta, gap, series, _ in _qubit_runs("exponential"):
        expected = cf.two_level_survival(theta, gap, series.times)
        worst = max(worst, np.abs(series.channels["p_survival"] - expected).max())
    checks = [(worst <= 1e-10, f"survival deviation {worst:.2e}")]
    return _result(2, "survival probability closed form", checks,
                   f"max deviation {worst:.2e}")


def criterion_03_full_fock_single_mode():
    """Full truncated-space run reproduces the balanced single-mode forms."""
    n, omega = 3, 1.0
    cfg = _scenario(
        "single-mode-superposition", n=n, omega=omega, t_max=20, steps=2001,
        comparison=True,
    )
    series, _ = run_scenario(cfg)
    ch, t = series.channels, series.times
    a0, an = cf.balanced_superposition_probabilities(n, omega, 0.0, t)
    number = cf.balanced_superposition_number(n, omega, 0.0, t)
    dev = max(
        np.abs(ch["p_0"] - a0).max(),
        np.abs(ch[f"p_{n}"] - an).max(),
        np.abs(ch["n_expect"] - number).max(),
    )
    # unmodified dynamics keeps both populations pinned at 1/2
    dev_std = np.abs(ch[f"std_p_{n}"] - 0.5).max()
    checks = [
        (dev <= 1e-9, f"closed-form deviation {dev:.2e}"),
        (dev_std <= 1e-12, f"standard channel deviation {dev_std:.2e}"),
    ]
    return _result(3, "full-space balanced single mode", checks,
                   f"modified dev {dev:.2e}, standard dev {dev_std:.2e}")


def criterion_04_two_mode_products():
    """Separable pair: product formulas, unit sum, tensor-split generator."""
    n, m = 2, 3
    omega_a, omega_b = 1.0, math.sqrt(2.0)
    cfg = _scenario(
        "two-mode-separable", n=n, m=m, omega_a=omega_a, omega_b=omega_b,
        t_max=9, steps=2001,
    )
    series, _ = run_scenario(cfg)
    labels = ["p_0_0", f"p_{n}_0", f"p_0_{m}", f"p_{n}_{m}"]
    forms = cf.separable_pair_probabilities(n, m, omega_a, omega_b, series.times)
    dev = max(
        np.abs(series.channels[name] - form).max()
        for name, form in zip(labels, forms)
    )
    total = sum(series.channels[name] for name in labels)
    dev_sum = np.abs(total - 1.0).max()
    # the generator the scenario propagates is the dense conjugation by the
    # product of the single-mode rotations of (|0> + |n>)/sqrt(2)
    u_p = np.eye(1)
    for w, k in ((omega_a, n), (omega_b, m)):
        sub = ModeSystem((w,), (k + 1,))
        dec = decompose_against_ground(superposition(sub, {(0,): 1.0, (k,): 1.0}))
        u_p = np.kron(u_p, build_passive_unitary(dec, sub))
    sys_ = ModeSystem((omega_a, omega_b), (n + 1, m + 1))
    dense = effective_hamiltonian(free_hamiltonian(sys_), u_p)
    dev_split = np.abs(kron_generator(_assemble(cfg).dyn) - dense).max()
    checks = [
        (dev <= 1e-9, f"product-form deviation {dev:.2e}"),
        (dev_sum <= 1e-12, f"sum deviation {dev_sum:.2e}"),
        (dev_split <= 1e-12, f"tensor-split deviation {dev_split:.2e}"),
    ]
    return _result(4, "separable two-mode products", checks,
                   f"form {dev:.2e}, sum {dev_sum:.2e}, split {dev_split:.2e}")


def _dominant_rate(t, signal):
    """Angular rate of the sin^2 oscillation via the spectrum peak (halved)."""
    centered = signal - signal.mean()
    spectrum = np.abs(np.fft.rfft(centered))
    freqs = np.fft.rfftfreq(t.size, d=t[1] - t[0])
    peak = freqs[int(np.argmax(spectrum[1:])) + 1]
    return math.pi * peak  # sin^2 oscillates at twice the base rate


def criterion_05_entangled_pair():
    """Entangled pair matches its closed form and has a collective rate."""
    n, m = 2, 3
    omega_a, omega_b = 1.0, math.sqrt(2.0)
    cfg = _scenario(
        "entangled-noon", n=n, m=m, omega_a=omega_a, omega_b=omega_b,
        t_max=40, steps=4001,
    )
    series, _ = run_scenario(cfg)
    t, p00 = series.times, series.channels["p_0_0"]
    pnm = series.channels[f"p_{n}_{m}"]
    a00, anm = cf.noon_probabilities(n, m, omega_a, omega_b, t)
    dev = max(np.abs(p00 - a00).max(), np.abs(pnm - anm).max())
    rate = _dominant_rate(t, p00)
    collective = (n * omega_a + m * omega_b) / math.sqrt(2.0)
    separable_rates = (n * omega_a / math.sqrt(2.0), m * omega_b / math.sqrt(2.0))
    gaps = [abs(rate - r) / r for r in separable_rates]
    checks = [
        (dev <= 1e-9, f"closed-form deviation {dev:.2e}"),
        (
            abs(rate - collective) / collective <= 0.05,
            f"measured rate {rate:.3f} vs collective {collective:.3f}",
        ),
        (
            min(gaps) > 0.10,
            f"rate too close to a separable channel: gaps {gaps}",
        ),
    ]
    return _result(
        5,
        "entangled pair collective oscillation",
        checks,
        f"dev {dev:.2e}; rate {rate:.4f}, collective {collective:.4f}, "
        f"min separable gap {min(gaps):.0%}",
    )


def criterion_06_degenerate_interferometer():
    """Equal arm energies freeze every occupation probability."""
    cfg = _scenario(
        "moon-degenerate", M=2, N=1, omega_a=1.0, omega_b=2.0, phi=math.pi / 3,
        t_max=50, steps=2001,
    )
    series, _ = run_scenario(cfg)
    worst = 0.0
    for name, values in series.channels.items():
        if name.startswith("p_"):
            worst = max(worst, np.abs(values - values[0]).max())
    checks = [(worst <= 1e-10, f"max drift {worst:.2e}")]
    return _result(6, "degenerate interferometer is static", checks,
                   f"max channel drift {worst:.2e} over t <= 50")


def criterion_07_perturbative_interferometer():
    """First-order formula residual scales as the detuning squared."""
    phi, n_occ = math.pi / 3, 2
    residuals = {}
    for eps in (1e-2, 1e-3):
        cfg = _scenario(
            "moon-perturbative", N=n_occ, phi=phi, eps=eps, t_max=2.0 * math.pi,
            steps=801,
        )
        series, _ = run_scenario(cfg)
        params = cf.MoonParams.from_detuning(n_occ, phi, 1.0, eps)
        fa, fb = cf.moon_perturbative_probabilities(params, series.times)
        residuals[eps] = max(
            np.abs(series.channels[f"p_{n_occ}_0"] - fa).max(),
            np.abs(series.channels[f"p_0_{n_occ}"] - fb).max(),
        )
    ratio = residuals[1e-2] / residuals[1e-3]
    checks = [
        (50.0 <= ratio <= 200.0, f"scaling ratio {ratio:.1f}"),
        (residuals[1e-3] <= 1e-5, f"residual at 1e-3: {residuals[1e-3]:.2e}"),
    ]
    return _result(
        7,
        "perturbative interferometer scaling",
        checks,
        f"residuals {residuals[1e-2]:.2e} / {residuals[1e-3]:.2e}, "
        f"ratio {ratio:.1f}",
    )


def criterion_08_gravitational_asymmetry():
    """Arm asymmetry amplitude equals r_S L / r_E^2 from the full pipeline."""
    cfg = _scenario("gravitational-mzi", N=1, omega_0=1.0, steps=2001)
    series, summary = run_scenario(cfg)
    expected = 1e-2 * 1e5 / 6.371e6**2
    amp = summary["asymmetry_amplitude"]
    rel = abs(amp - expected) / expected
    checks = [
        (rel <= 0.01, f"relative error {rel:.2e}"),
        (
            abs(expected - 2.4637e-11) / 2.4637e-11 < 1e-3,
            f"derived amplitude {expected:.4e} not ~2.46e-11",
        ),
    ]
    return _result(
        8,
        "gravitational arm asymmetry",
        checks,
        f"simulated {amp:.6e} vs r_S L / r_E^2 = {expected:.6e} "
        f"(rel err {rel:.1e}); documented deviation from the 4.2e-11 estimate",
    )


def criterion_09_measures_and_rates():
    """Coherence, negativity and the coherence form of the oscillation rate."""
    sys_ = ModeSystem((1.0, 1.5), (2, 3))
    part = BipartitionSpec((0,), (1,))
    worst_c, worst_n = 0.0, 0.0
    for theta in np.linspace(0.0, math.pi / 2, 9):
        psi = superposition(
            sys_, {(0, 0): math.cos(theta), (2, 3): math.sin(theta)}
        )
        worst_c = max(worst_c, abs(l1_coherence(psi) - abs(math.sin(2 * theta))))
        worst_n = max(
            worst_n,
            abs(negativity(psi, sys_, part) - 0.5 * abs(math.sin(2 * theta))),
        )
    gap = 1.7
    worst_id = max(
        abs(
            cf.oscillation_frequency(theta, gap)
            - cf.oscillation_frequency_from_coherence(
                abs(math.sin(2 * theta)), gap
            )
        )
        for theta in np.linspace(0.0, math.pi / 4, 26)
    )
    theta_bad = 3 * math.pi / 8
    mismatch = abs(
        cf.oscillation_frequency(theta_bad, gap)
        - cf.oscillation_frequency_from_coherence(
            abs(math.sin(2 * theta_bad)), gap
        )
    )
    checks = [
        (worst_c <= 1e-12, f"coherence deviation {worst_c:.2e}"),
        (worst_n <= 1e-12, f"negativity deviation {worst_n:.2e}"),
        (worst_id <= 1e-12, f"rate identity deviation {worst_id:.2e}"),
        (mismatch > 1e-3, f"expected branch failure absent ({mismatch:.2e})"),
    ]
    return _result(
        9,
        "coherence and entanglement measures",
        checks,
        f"C dev {worst_c:.1e}, N dev {worst_n:.1e}, identity dev "
        f"{worst_id:.1e}, branch mismatch {mismatch:.2e}",
    )


def criterion_10_passivity():
    """Passive rearrangement is the exact permutation optimum."""
    rng = np.random.default_rng(1234)
    worst_gap = 0.0
    beaten = True
    for _ in range(100):
        dim = int(rng.integers(4, 7))
        levels = np.cumsum(rng.uniform(0.1, 1.0, dim))
        h = np.diag(levels)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = DensityOperator((z @ z.conj().T) / np.trace(z @ z.conj().T).real)
        out = passive_state(rho, h)
        energy = float(np.trace(out.matrix @ h).real)
        pops = np.linalg.eigvalsh(rho.matrix)
        best = min(
            float(np.dot(pops[list(perm)], levels))
            for perm in itertools.permutations(range(dim))
        )
        worst_gap = max(worst_gap, abs(energy - best))
        z = rng.normal(size=(1000, dim, dim)) + 1j * rng.normal(
            size=(1000, dim, dim)
        )
        qs, _ = np.linalg.qr(z)
        rotated = np.einsum(
            "uij,jk,ukl->uil", qs, rho.matrix, qs.conj().transpose(0, 2, 1)
        )
        energies = np.einsum(
            "uii->u", np.einsum("uij,jk->uik", rotated, h)
        ).real
        if energies.min() < energy - 1e-12:
            beaten = False
    checks = [
        (worst_gap <= 1e-12, f"gap to permutation optimum {worst_gap:.2e}"),
        (beaten, "a random conjugation undercut the passive energy"),
    ]
    return _result(
        10,
        "mixed-state passivity optimum",
        checks,
        f"max |energy - permutation minimum| {worst_gap:.2e} over 100 states, "
        f"each checked against 1000 random conjugations",
    )


def criterion_11_orthogonal_survival_comparison():
    """Record how modified and standard survival differ for theta = pi/2."""
    rng = np.random.default_rng(4321)
    deviations = []
    for _ in range(20):
        levels = np.concatenate([[0.0], np.sort(rng.uniform(0.3, 3.0, 5))])
        amps = np.zeros(6, dtype=complex)
        amps[1:] = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi = Ket(amps)
        dyn = effective_dynamics([(levels, psi)])
        t = np.linspace(0.0, 25.0, 200)
        modified = survival_probability(dyn, psi, t)["p_survival"]
        # H is diagonal: the unmodified survival is a pure phase sum
        phases = np.exp(-1j * np.outer(levels, t))
        weights = np.abs(psi.amplitudes) ** 2
        standard = np.abs(np.einsum("i,it->t", weights, phases)) ** 2
        deviations.append(float(np.abs(modified - standard).max()))
    deviations = np.array(deviations)
    checks = [
        (bool(np.all(np.isfinite(deviations))), "comparison did not complete"),
        (len(deviations) == 20, "wrong instance count"),
    ]
    return _result(
        11,
        "orthogonal-state survival comparison",
        checks,
        f"recorded max deviation {deviations.max():.3f}, median "
        f"{np.median(deviations):.3f}: the equal-survival claim does not "
        f"hold for non-eigenstate initial states",
    )


def criterion_12_structural_properties():
    """Unitarity, tracelessness, frozen ground state, stationarity, the two
    generator expansions agreeing, and the reduced route matching the dense
    eigendecomposition, on random instances."""
    rng = np.random.default_rng(777)
    worst = dict.fromkeys(
        ("unitarity", "trace", "stationary", "equivalence", "reduced"), 0.0
    )
    frozen_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        levels = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 3.0, dim - 1))])
        h = np.diag(levels)
        sys_ = ModeSystem((1.0,), (dim - 1,))
        psi = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        dec = decompose_against_ground(psi)
        h_eff = effective_hamiltonian(h, build_passive_unitary(dec, sys_))
        t = float(rng.uniform(0.1, 8.0))
        u = propagator(h_eff, t)
        worst["unitarity"] = max(
            worst["unitarity"],
            np.abs(u @ u.conj().T - np.eye(dim)).max(),
        )
        worst["trace"] = max(worst["trace"], abs(np.trace(h_eff)) / dim)
        g = expanded_generator(h, dec)
        worst["equivalence"] = max(
            worst["equivalence"], np.abs(g + h_eff).max()
        )
        grid = np.linspace(0.0, t, 9)
        rows, basis, coeffs = _reduced_states(
            effective_dynamics([(levels, psi)]), psi.amplitudes, grid
        )
        reduced = np.zeros((dim, grid.size), dtype=complex)
        reduced[rows] = coeffs if basis is None else basis @ coeffs
        dense = np.stack([propagator(h_eff, s) @ psi.amplitudes for s in grid], axis=1)
        worst["reduced"] = max(worst["reduced"], np.abs(reduced - dense).max())
        # an excited eigenstate stays put
        k = int(rng.integers(1, dim))
        eig = fock_ket(sys_, (k,))
        dyn_k = effective_dynamics([(levels, eig)])
        p = evolve_probabilities(dyn_k, eig, {"p": [k]}, np.linspace(0, 10, 21))["p"]
        worst["stationary"] = max(worst["stationary"], np.abs(p - 1.0).max())
        # the ground state does not evolve at all
        vac = vacuum_ket(sys_)
        u_g = build_passive_unitary(decompose_against_ground(vac), sys_)
        h_eff_g = effective_hamiltonian(h, u_g)
        dyn_g = effective_dynamics([(levels, vac)])
        rows, basis, coeffs = _reduced_states(dyn_g, vac.amplitudes, grid)
        states = coeffs if basis is None else basis @ coeffs
        if (
            np.any(h_eff_g)
            or np.any(propagator(h_eff_g, t) != np.eye(dim))
            or np.any(kron_generator(dyn_g))
            or np.any(states != vac.amplitudes[rows, None])
        ):
            frozen_ok = False
    checks = [
        (worst["unitarity"] <= 1e-11, f"unitarity {worst['unitarity']:.2e}"),
        (worst["trace"] <= 1e-10, f"trace {worst['trace']:.2e}"),
        (frozen_ok, "ground state acquired dynamics"),
        (worst["stationary"] <= 1e-10, f"stationarity {worst['stationary']:.2e}"),
        (worst["equivalence"] <= 1e-10, f"equivalence {worst['equivalence']:.2e}"),
        (worst["reduced"] <= 1e-12, f"reduced vs dense {worst['reduced']:.2e}"),
    ]
    return _result(
        12,
        "structural properties on random instances",
        checks,
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )


CRITERIA = (
    criterion_01_two_level_triangle,
    criterion_02_survival_closed_form,
    criterion_03_full_fock_single_mode,
    criterion_04_two_mode_products,
    criterion_05_entangled_pair,
    criterion_06_degenerate_interferometer,
    criterion_07_perturbative_interferometer,
    criterion_08_gravitational_asymmetry,
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
