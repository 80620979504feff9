"""Closed-form predictions of work-driven evolution.

Every analytically solvable scenario as a pure function of time.  These
serve both as user-facing results and as independent oracles for the
numerical propagators: wherever the excited component of the initial state
is an energy eigenstate, the occupation probabilities oscillate at the rate
sin(theta) * gap between the ground overlap and the excited overlap.

All formulas use hbar = 1; energies are angular frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "two_level_probabilities",
    "two_level_survival",
    "balanced_superposition_probabilities",
    "balanced_superposition_number",
    "separable_pair_probabilities",
    "product_recurrence_possible",
    "noon_probabilities",
    "MoonParams",
    "moon_degenerate_probabilities",
    "moon_perturbative_probabilities",
    "detuning_response",
    "GravityScenario",
    "gravitational_probabilities",
    "oscillation_frequency",
    "oscillation_frequency_from_coherence",
]


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


def balanced_superposition_probabilities(n: int, omega: float, e0: float, t):
    """Single-mode balanced case (|0> + |n>)/sqrt(2): vacuum and |n> weights."""
    t = np.asarray(t, dtype=float)
    osc = np.sin((n * omega - e0) * t / np.sqrt(2.0)) ** 2
    return 0.5 * (1.0 - osc), 0.5 * (1.0 + osc)


def balanced_superposition_number(n: int, omega: float, e0: float, t):
    """Occupation expectation for the balanced single-mode superposition."""
    t = np.asarray(t, dtype=float)
    osc = np.sin((n * omega - e0) * t / np.sqrt(2.0)) ** 2
    return 0.5 * n * (1.0 + osc)


def separable_pair_probabilities(n: int, m: int, omega_a: float, omega_b: float, t):
    """Joint weights for a product of two balanced superpositions.

    Returns (p_00, p_n0, p_0m, p_nm); each factorizes into the single-mode
    results and the four add up to one exactly.
    """
    t = np.asarray(t, dtype=float)
    pa0, pan = balanced_superposition_probabilities(n, omega_a, 0.0, t)
    pb0, pbm = balanced_superposition_probabilities(m, omega_b, 0.0, t)
    return pa0 * pb0, pan * pb0, pa0 * pbm, pan * pbm


def product_recurrence_possible(ns, omegas, base_omega: float, tol=1e-9) -> bool:
    """Whether the all-excited weight of a multimode product can reach one.

    True iff every n_k * omega_k / sqrt(2) is an odd positive multiple of
    ``base_omega`` (within ``tol``), so all single-mode oscillations peak
    simultaneously.
    """
    if base_omega <= 0:
        raise ValueError("base frequency must be positive")
    for n, w in zip(ns, omegas, strict=True):
        ratio = n * w / (np.sqrt(2.0) * base_omega)
        nearest = round(ratio)
        if abs(ratio - nearest) > tol or nearest < 1 or nearest % 2 == 0:
            return False
    return True


def noon_probabilities(n: int, m: int, omega_a: float, omega_b: float, t):
    """Entangled pair (|00> + |nm>)/sqrt(2): vacuum and doubly-excited weights.

    The collective oscillation argument is (n omega_a + m omega_b) t / sqrt(2),
    a single frequency set by the total excitation energy.
    """
    t = np.asarray(t, dtype=float)
    osc = np.sin((n * omega_a + m * omega_b) * t / np.sqrt(2.0)) ** 2
    return 0.5 * (1.0 - osc), 0.5 * (1.0 + osc)


def detuning_response(phi: float) -> float:
    """First-order amplitude of the detuned interferometer probabilities.

    The exact generator gives a deviation 4 * eps * sin^2(phi) cos^2(phi)
    * sin^2(N omega_a t / 2) at first order in the relative detuning; this
    is the coefficient sin^2(phi) cos^2(phi).  See MoonParams.f_coefficient
    for the quartic variant, which agrees with this one only at
    phi in {0, pi/4, pi/2}.
    """
    return float(np.sin(phi) ** 2 * np.cos(phi) ** 2)


@dataclass(frozen=True)
class MoonParams:
    """Two-mode interferometer state cos(phi)|M,0> + sin(phi)|0,N>.

    ``eps`` is the relative detuning (omega_b - omega_a)/omega_a and must be
    small for the perturbative formulas to apply.
    """

    m_occ: int
    n_occ: int
    phi: float
    omega_a: float
    omega_b: float

    def __post_init__(self):
        if self.m_occ < 1 or self.n_occ < 1:
            raise ValueError("occupations must be >= 1")
        if self.omega_a <= 0 or self.omega_b <= 0:
            raise ValueError("frequencies must be positive")
        if abs(self.eps) >= 0.1:
            raise ValueError(
                f"relative detuning {self.eps:g} too large for perturbation theory"
            )

    @property
    def eps(self) -> float:
        return (self.omega_b - self.omega_a) / self.omega_a

    @property
    def f_coefficient(self) -> float:
        """Quartic mixing coefficient sin^4(phi) cos^2(phi) (1 + 2 cos^2(phi))."""
        s2 = np.sin(self.phi) ** 2
        c2 = np.cos(self.phi) ** 2
        return float(s2 * s2 * c2 * (1.0 + 2.0 * c2))

    @classmethod
    def from_detuning(cls, n_occ: int, phi: float, omega_a: float, eps: float):
        """Equal-occupation interferometer with omega_b = (1 + eps) omega_a."""
        return cls(
            m_occ=n_occ,
            n_occ=n_occ,
            phi=phi,
            omega_a=omega_a,
            omega_b=omega_a * (1.0 + eps),
        )


def moon_degenerate_probabilities(phi: float):
    """Interferometer weights when both arms carry the same energy.

    With M omega_a = N omega_b the dynamics freezes the arm populations:
    the weights are the constants (cos^2(phi), sin^2(phi)).
    """
    return float(np.cos(phi) ** 2), float(np.sin(phi) ** 2)


def moon_perturbative_probabilities(params: MoonParams, t):
    """First-order arm populations of a slightly detuned interferometer.

    p_first  = cos^2(phi) - 4 eps R(phi) sin^2(N omega_a t / 2)
    p_second = sin^2(phi) + 4 eps R(phi) sin^2(N omega_a t / 2)

    with R(phi) = sin^2(phi) cos^2(phi) the first-order response of the
    exact generator (see :func:`detuning_response`); the residual against
    the full evolution is O(eps^2).
    """
    t = np.asarray(t, dtype=float)
    if params.m_occ != params.n_occ:
        raise ValueError("perturbative form assumes equal occupations in both arms")
    amp = 4.0 * params.eps * detuning_response(params.phi)
    osc = np.sin(params.n_occ * params.omega_a * t / 2.0) ** 2
    p_first = np.cos(params.phi) ** 2 - amp * osc
    p_second = np.sin(params.phi) ** 2 + amp * osc
    return p_first, p_second


@dataclass(frozen=True)
class GravityScenario:
    """Balanced interferometer with arms at different heights.

    The upper arm, separated by ``path_length`` from the lower one at radius
    ``earth_radius``, carries the redshifted frequency
    omega(L) = (1 - (r_S / 2) L / r_E^2) * omega_0.
    """

    schwarzschild_radius: float
    earth_radius: float
    path_length: float
    omega_0: float
    n_occ: int = 1

    def __post_init__(self):
        if self.path_length >= 0.1 * self.earth_radius:
            raise ValueError(
                "path separation must satisfy L < 0.1 r_E for the first-order "
                "redshift expansion"
            )
        if self.omega_0 <= 0 or self.n_occ < 1:
            raise ValueError("omega_0 must be positive and n_occ >= 1")

    @property
    def relative_shift(self) -> float:
        """(r_S / 2) L / r_E^2, the first-order fractional frequency shift."""
        return 0.5 * self.schwarzschild_radius * self.path_length / self.earth_radius**2

    @property
    def asymmetry(self) -> float:
        """Peak probability asymmetry r_S L / r_E^2 between the two arms."""
        return self.schwarzschild_radius * self.path_length / self.earth_radius**2


def gravitational_probabilities(scenario: GravityScenario, t):
    """Arm populations of the height-split interferometer to first order.

    p_upper = (1/2) [1 + (r_S L / r_E^2) sin^2(N omega_0 t / 2)]
    p_lower = (1/2) [1 - ...]

    Equivalent to :func:`moon_perturbative_probabilities` at phi = pi/4 with
    eps = -(r_S / 2) L / r_E^2.
    """
    t = np.asarray(t, dtype=float)
    osc = np.sin(scenario.n_occ * scenario.omega_0 * t / 2.0) ** 2
    p_upper = 0.5 * (1.0 + scenario.asymmetry * osc)
    p_lower = 0.5 * (1.0 - scenario.asymmetry * osc)
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
