"""Coherence and entanglement quantifiers in the fixed Fock basis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import Ket, ModeSystem


@dataclass(frozen=True)
class BipartitionSpec:
    """Split of the mode register into two disjoint, covering, nonempty sets."""

    subsystem_a: tuple[int, ...]
    subsystem_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystem_a", tuple(self.subsystem_a))
        object.__setattr__(self, "subsystem_b", tuple(self.subsystem_b))
        if not self.subsystem_a or not self.subsystem_b:
            raise ValueError("both subsystems must be nonempty")
        if set(self.subsystem_a) & set(self.subsystem_b):
            raise ValueError("subsystems must be disjoint")

    def validate_for(self, system: ModeSystem):
        covered = set(self.subsystem_a) | set(self.subsystem_b)
        if covered != set(range(system.modes)):
            raise ValueError(
                f"partition {sorted(covered)} does not cover modes "
                f"0..{system.modes - 1}"
            )


def l1_coherence(psi: Ket) -> float:
    """Sum of the absolute off-diagonal entries of |psi><psi|.

    For a pure state that is (sum_k |a_k|)^2 - 1, read from the amplitudes.
    """
    return float(np.abs(psi.amplitudes).sum() ** 2 - 1.0)


def negativity(psi: Ket, system: ModeSystem, part: BipartitionSpec) -> float:
    """Entanglement negativity of the pure state |psi> across ``part``.

    With sigma_i the singular values of the amplitudes reshaped to the
    bipartition (the Schmidt coefficients), the negative eigenvalues of the
    partial transpose sum to -((sum_i sigma_i)^2 - 1) / 2 (Vidal and
    Werner, PRA 65, 032314, 2002).
    """
    part.validate_for(system)
    if psi.dimension != system.dimension:
        raise ValueError(
            f"state dimension {psi.dimension} does not match system "
            f"{system.dimension}"
        )
    dims = [c + 1 for c in system.cutoff]
    rows = math.prod(dims[m] for m in part.subsystem_a)
    amps = psi.amplitudes.reshape(dims).transpose(part.subsystem_a + part.subsystem_b)
    sigma = np.linalg.svd(amps.reshape(rows, -1), compute_uv=False)
    # a product state has sigma = (1, 0, ...); rounding must not turn it negative
    return max(float((sigma.sum() ** 2 - 1.0) / 2.0), 0.0)
