"""Passive-state machinery.

Canonical split of a pure state against the ground state, the unitary that
maps a pure state onto the ground state while acting as the identity outside
the plane it spans with the ground state, and passive rearrangement of mixed
states (largest population onto the lowest level).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError
from .fock import ATOL, DensityOperator, Ket, ModeSystem, Operator

#: below this mixing angle the state is treated as the ground state itself
THETA_TOL = 1e-12

#: minimum spectral gap for the mixed-state rearrangement to be well defined
GAP_TOL = 1e-10


@dataclass(frozen=True)
class GroundDecomposition:
    """Split |psi> = cos(theta)|ground> + sin(theta)|excited>.

    ``theta`` lies in [0, pi/2]; the global phase is fixed so the ground
    amplitude is real and non-negative, any residual phase being absorbed
    into ``excited``.  ``excited`` is None when theta < THETA_TOL.
    """

    theta: float
    excited: Ket | None


def decompose_against_ground(psi: Ket) -> GroundDecomposition:
    """Canonical ground/excited split of a normalized state."""
    amps = psi.amplitudes.copy()
    g = amps[0]
    if abs(g) > THETA_TOL:
        # rotate the global phase so the ground amplitude is real positive
        amps = amps * (g.conjugate() / abs(g))
    else:
        # orthogonal to the ground state: anchor the phase on the largest entry
        k = int(np.argmax(np.abs(amps)))
        amps = amps * (amps[k].conjugate() / abs(amps[k]))
    cos_theta = float(np.clip(amps[0].real, 0.0, 1.0))
    theta = float(np.arccos(cos_theta))
    rest = amps.copy()
    rest[0] = 0.0
    # a rounded ground amplitude just below 1 leaves theta ~ 1e-8 with
    # nothing outside the ground state
    if theta < THETA_TOL or not np.any(rest):
        return GroundDecomposition(theta=0.0, excited=None)
    return GroundDecomposition(theta=theta, excited=Ket(rest))


def build_passive_unitary(dec: GroundDecomposition, system: ModeSystem) -> Operator:
    """Unitary rotating the decomposed state onto the ground state.

    Acts as cos(theta) on the (ground, excited) plane with off-diagonal
    couplings +sin(theta)|g><e| and -sin(theta)|e><g|, and as the exact
    identity on every basis vector orthogonal to that plane.
    """
    dim = system.dimension
    if dec.excited is None:
        return Operator(np.eye(dim), hermitian_hint=False)
    if dec.excited.dimension != dim:
        raise ValueError(
            f"decomposition lives in dimension {dec.excited.dimension}, "
            f"system has {dim}"
        )
    g = np.zeros(dim, dtype=complex)
    g[0] = 1.0
    e = dec.excited.amplitudes
    c, s = np.cos(dec.theta), np.sin(dec.theta)
    pg = np.outer(g, g.conj())
    pe = np.outer(e, e.conj())
    u = (
        c * (pg + pe)
        + s * np.outer(g, e.conj())
        - s * np.outer(e, g.conj())
        + np.eye(dim)
        - pg
        - pe
    )
    return Operator(u, hermitian_hint=False)


def passive_unitary_for(psi: Ket, system: ModeSystem) -> Operator:
    """Convenience wrapper: decompose then build the rotation."""
    return build_passive_unitary(decompose_against_ground(psi), system)


def passive_state(rho: DensityOperator, hamiltonian: Operator) -> DensityOperator:
    """Unitary rearrangement of rho with minimal energy.

    Populations of rho sorted in decreasing order are attached to the energy
    levels of ``hamiltonian`` sorted in increasing order.  Requires a
    nondegenerate spectrum; levels closer than GAP_TOL make the target
    ambiguous and raise :class:`DegenerateSpectrumError`.
    """
    if not hamiltonian.hermitian_hint:
        # validate hermiticity even when the caller did not assert it
        h = hamiltonian.matrix
        if np.abs(h - h.conj().T).max() > ATOL * max(np.abs(h).max(), 1.0):
            raise ValueError("hamiltonian must be Hermitian")
    if rho.dimension != hamiltonian.dimension:
        raise ValueError(
            f"dimension mismatch: state {rho.dimension}, "
            f"hamiltonian {hamiltonian.dimension}"
        )
    energies, levels = np.linalg.eigh(hamiltonian.matrix)
    gaps = np.diff(energies)
    if len(gaps) and gaps.min() < GAP_TOL:
        raise DegenerateSpectrumError(
            f"spectrum has gap {gaps.min():g} < {GAP_TOL:g}; "
            "passive rearrangement requires a unique level ordering"
        )
    populations = np.linalg.eigvalsh(rho.matrix)[::-1]  # descending
    populations = np.clip(populations, 0.0, None)
    populations = populations / populations.sum()
    out = (levels * populations) @ levels.conj().T
    return DensityOperator(out)
