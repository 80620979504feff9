"""Coherence and entanglement quantifiers in the fixed Fock basis."""

from __future__ import annotations

import numpy as np

from .fock import Ket, ModeSystem


def l1_coherence(psi: Ket) -> float:
    """Sum of the absolute off-diagonal entries of |psi><psi|.

    For a pure state that is (sum_k |a_k|)^2 - 1, read from the amplitudes.
    """
    return float(np.abs(psi.amplitudes).sum() ** 2 - 1.0)


def negativity(psi: Ket, system: ModeSystem) -> float:
    """Entanglement negativity of the pure state |psi> of ``system`` across
    mode 0 against the rest of the register.

    With sigma_i the singular values of the amplitudes reshaped to that
    split (the Schmidt coefficients), the negative eigenvalues of the
    partial transpose sum to -((sum_i sigma_i)^2 - 1) / 2 (Vidal and
    Werner, PRA 65, 032314, 2002).
    """
    amps = psi.amplitudes.reshape(system.cutoff[0] + 1, -1)
    sigma = np.linalg.svd(amps, compute_uv=False)
    # a product state has sigma = (1, 0, ...); rounding must not turn it negative
    return max(float((sigma.sum() ** 2 - 1.0) / 2.0), 0.0)
