"""Closed-form predictions of work-driven evolution.

Every analytically solvable scenario as a pure function of time.  These
serve both as user-facing results and as independent oracles for the
numerical propagators: wherever the excited component of the initial state
is an energy eigenstate, the occupation probabilities oscillate at the rate
sin(theta) * gap between the ground overlap and the excited overlap.

All formulas use hbar = 1; energies are angular frequencies.
"""

from __future__ import annotations

import math

import numpy as np


def two_level_probabilities(theta: float, energy_gap: float, t):
    """Ground / excited occupation for cos(theta)|g> + sin(theta)|e>.

    Requires the excited component to be an energy eigenstate at
    ``energy_gap`` above the ground state.  The pair sums to one exactly.
    """
    t = np.asarray(t, dtype=float)
    c2 = np.cos(theta) ** 2
    osc = np.sin(np.sin(theta) * energy_gap * t) ** 2
    p_ground = c2 - c2 * osc
    p_excited = 1.0 - p_ground
    return p_ground, p_excited


def two_level_survival(theta: float, energy_gap: float, t):
    """Probability of still finding the initial two-level superposition."""
    t = np.asarray(t, dtype=float)
    return 1.0 - np.cos(theta) ** 2 * np.sin(np.sin(theta) * energy_gap * t) ** 2


def balanced_superposition_probabilities(gap: float, t):
    """Balanced case (|0> + |e>)/sqrt(2), |e> an eigenstate ``gap`` above the
    vacuum: vacuum and |e> weights.  One mode with |e> = |n> has gap
    n omega - E0; the pair (|00> + |nm>)/sqrt(2) has the collective gap
    n omega_a + m omega_b."""
    t = np.asarray(t, dtype=float)
    osc = np.sin(gap * t / np.sqrt(2.0)) ** 2
    return 0.5 * (1.0 - osc), 0.5 * (1.0 + osc)


def balanced_superposition_number(n: int, gap: float, t):
    """Occupation expectation for the balanced single-mode superposition."""
    t = np.asarray(t, dtype=float)
    osc = np.sin(gap * t / np.sqrt(2.0)) ** 2
    return 0.5 * n * (1.0 + osc)


def product_recurrence_possible(ns, omegas, base_omega: float) -> bool:
    """Whether the all-excited weight of a multimode product can reach one.

    True iff every n_k * omega_k / sqrt(2) is an odd positive multiple of
    ``base_omega`` (within 1e-9), so all single-mode oscillations peak
    simultaneously.  A ratio past the float range is not: every double past
    2^53 is even.
    """
    for n, w in zip(ns, omegas, strict=True):
        ratio = float(n * w) / (math.sqrt(2.0) * base_omega)
        if not math.isfinite(ratio):
            return False
        nearest = round(ratio)
        if abs(ratio - nearest) > 1e-9 or nearest < 1 or nearest % 2 == 0:
            return False
    return True


def detuning_response(phi: float) -> float:
    """First-order amplitude of the detuned interferometer probabilities.

    The exact generator gives a deviation 4 * eps * sin^2(phi) cos^2(phi)
    * sin^2(N omega_a t / 2) at first order in the relative detuning; this
    is the coefficient sin^2(phi) cos^2(phi).  The quartic variant
    sin^4(phi) cos^2(phi) (1 + 2 cos^2(phi)) agrees with it only at
    phi in {0, pi/4, pi/2}.
    """
    return float(np.sin(phi) ** 2 * np.cos(phi) ** 2)


def moon_degenerate_probabilities(phi: float):
    """Interferometer weights when both arms carry the same energy.

    With M omega_a = N omega_b the dynamics freezes the arm populations:
    the weights are the constants (cos^2(phi), sin^2(phi)).
    """
    return float(np.cos(phi) ** 2), float(np.sin(phi) ** 2)


def moon_perturbative_probabilities(n_occ: int, phi: float, omega_a: float,
                                    omega_b: float, t):
    """First-order arm populations of the slightly detuned interferometer
    cos(phi)|N,0> + sin(phi)|0,N>, with eps = (omega_b - omega_a) / omega_a:

    p_first  = cos^2(phi) - 4 eps R(phi) sin^2(N omega_a t / 2)
    p_second = sin^2(phi) + 4 eps R(phi) sin^2(N omega_a t / 2)

    with R(phi) = sin^2(phi) cos^2(phi) the first-order response of the
    exact generator (see :func:`detuning_response`); the residual against
    the full evolution is O(eps^2).
    """
    t = np.asarray(t, dtype=float)
    eps = (omega_b - omega_a) / omega_a
    amp = 4.0 * eps * detuning_response(phi)
    osc = np.sin(n_occ * omega_a * t / 2.0) ** 2
    p_first = np.cos(phi) ** 2 - amp * osc
    p_second = np.sin(phi) ** 2 + amp * osc
    return p_first, p_second


def gravitational_asymmetry(r_S: float, r_E: float, L: float) -> float:
    """Peak probability asymmetry r_S L / r_E^2 between the two arms of an
    interferometer whose arms are ``L`` apart at radius ``r_E``; the upper
    arm carries the redshifted omega(L) = (1 - (r_S / 2) L / r_E^2) omega_0."""
    return r_S * L / r_E**2


def gravitational_probabilities(asymmetry: float, n_occ: int, omega_0: float, t):
    """Arm populations of the height-split interferometer to first order.

    p_upper = (1/2) [1 + (r_S L / r_E^2) sin^2(N omega_0 t / 2)]
    p_lower = (1/2) [1 - ...]

    Equivalent to :func:`moon_perturbative_probabilities` at phi = pi/4 with
    eps = -(r_S / 2) L / r_E^2.
    """
    t = np.asarray(t, dtype=float)
    osc = np.sin(n_occ * omega_0 * t / 2.0) ** 2
    p_upper = 0.5 * (1.0 + asymmetry * osc)
    p_lower = 0.5 * (1.0 - asymmetry * osc)
    return p_upper, p_lower


def oscillation_frequency(theta: float, energy_gap: float) -> float:
    """Rate sin(theta) * gap of the work-driven probability oscillation."""
    return float(np.sin(theta) * energy_gap)


def oscillation_frequency_from_coherence(coherence: float, energy_gap: float) -> float:
    """Oscillation rate expressed through the l1 coherence C = |sin(2 theta)|.

    sqrt(1 - sqrt(1 - C^2)) * gap / sqrt(2).  Matches
    :func:`oscillation_frequency` on theta in [0, pi/4]; for theta beyond
    pi/4 the inner square root resolves to the complementary branch
    (cos(theta) instead of sin(theta)) and the identity fails by design.
    """
    c = float(coherence)
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise ValueError(f"coherence must lie in [0, 1], got {c!r}")
    c = min(c, 1.0)
    return float(np.sqrt(1.0 - np.sqrt(1.0 - c * c)) * energy_gap / np.sqrt(2.0))
