"""Passive-state machinery.

Canonical split of a pure state against the ground state, which fixes the
passive rotation U_p of the generator.  U_p as a dense matrix, and passive
rearrangement of mixed states, are references in :mod:`ergodyn.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import Ket

#: below this mixing angle the state is treated as the ground state itself
THETA_TOL = 1e-12


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
