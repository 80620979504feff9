"""Dense density-matrix measures, kept as oracles of the amplitude-based
ones in ``ergodyn.measures`` and for the mixed-state measure tests."""

import numpy as np

from ergodyn import BipartitionSpec, DensityOperator, Ket, ModeSystem


def pure_density(ket: Ket) -> DensityOperator:
    v = ket.amplitudes
    return DensityOperator(np.outer(v, v.conj()))


def l1_coherence(rho: DensityOperator) -> float:
    """Sum of the absolute off-diagonal entries of the density matrix."""
    mat = np.abs(rho.matrix)
    return float(mat.sum() - np.trace(mat))


def partial_transpose(
    rho: DensityOperator, system: ModeSystem, part: BipartitionSpec
) -> np.ndarray:
    """Transpose the second subsystem's indices of the density matrix."""
    part.validate_for(system)
    if rho.dimension != system.dimension:
        raise ValueError(
            f"state dimension {rho.dimension} does not match system "
            f"{system.dimension}"
        )
    dims = [c + 1 for c in system.cutoff]
    k = system.modes
    tensor = rho.matrix.reshape(dims + dims)
    axes = list(range(2 * k))
    for mode in part.subsystem_b:
        axes[mode], axes[k + mode] = axes[k + mode], axes[mode]
    return tensor.transpose(axes).reshape(rho.matrix.shape)


def negativity(
    rho: DensityOperator, system: ModeSystem, part: BipartitionSpec
) -> float:
    """|sum of negative eigenvalues| of the partial transpose, which is
    Hermitian, so the spectrum comes from the symmetric eigensolver."""
    pt = partial_transpose(rho, system, part)
    evals = np.linalg.eigvalsh(pt)
    return float(-evals[evals < 0.0].sum())
