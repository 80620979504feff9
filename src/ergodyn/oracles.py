"""Dense references: the N x N forms that no run builds.

A run keeps H as its diagonal energies and the generator factored on an
invariant subspace of at most three dimensions per factor
(:mod:`ergodyn.dynamics`).  The dense forms here are what that route is
checked against: ``ergodyn selftest`` (:mod:`ergodyn.acceptance`) and the
tests import them, and no run does.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrumError
from .fock import Ket, ModeSystem, flat_index, free_energies
from .passive import GroundDecomposition

#: tolerance for hermiticity / normalization checks on construction
ATOL = 1e-12

#: minimum spectral gap for the mixed-state rearrangement to be well defined
GAP_TOL = 1e-10


class DensityOperator:
    """Hermitian, unit-trace, (numerically) positive matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density operator must be square, got {mat.shape}")
        if np.abs(mat - mat.conj().T).max() > ATOL:
            raise ValueError("density operator is not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density operator trace {tr!r} differs from 1")
        evals = np.linalg.eigvalsh(mat)
        if evals.min() < -1e-10:
            raise ValueError(f"density operator has eigenvalue {evals.min():g} < -1e-10")
        self.matrix = mat

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def fock_ket(system: ModeSystem, occupations) -> Ket:
    """Basis vector |n_1 ... n_k>."""
    vec = np.zeros(system.dimension, dtype=complex)
    vec[flat_index(system, occupations)] = 1.0
    return Ket(vec)


def vacuum_ket(system: ModeSystem) -> Ket:
    return fock_ket(system, (0,) * system.modes)


def free_hamiltonian(system: ModeSystem) -> np.ndarray:
    """Dense diagonal free Hamiltonian: |n_1...n_k> has energy sum_i n_i omega_i."""
    return np.diag(free_energies(system))


def build_passive_unitary(dec: GroundDecomposition, system: ModeSystem) -> np.ndarray:
    """Unitary rotating the decomposed state onto the ground state.

    Acts as cos(theta) on the (ground, excited) plane with off-diagonal
    couplings +sin(theta)|g><e| and -sin(theta)|e><g|, and as the exact
    identity on every basis vector orthogonal to that plane.
    """
    dim = system.dimension
    if dec.excited is None:
        return np.eye(dim, dtype=complex)
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
    return (
        c * (pg + pe)
        + s * np.outer(g, e.conj())
        - s * np.outer(e, g.conj())
        + np.eye(dim)
        - pg
        - pe
    )


def passive_state(rho: DensityOperator, hamiltonian: np.ndarray) -> DensityOperator:
    """Unitary rearrangement of rho with minimal energy.

    Populations of rho sorted in decreasing order are attached to the energy
    levels of ``hamiltonian`` sorted in increasing order.  Requires a
    nondegenerate spectrum; levels closer than GAP_TOL make the target
    ambiguous and raise :class:`DegenerateSpectrumError`.
    """
    h = np.asarray(hamiltonian)
    if h.shape != rho.matrix.shape:
        raise ValueError(
            f"dimension mismatch: state {rho.matrix.shape}, hamiltonian {h.shape}"
        )
    if np.abs(h - h.conj().T).max() > ATOL * max(np.abs(h).max(), 1.0):
        raise ValueError("hamiltonian must be Hermitian")
    energies, levels = np.linalg.eigh(h)
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


def expanded_generator(hamiltonian: np.ndarray, dec) -> np.ndarray:
    """Coefficient-form drive generator on the ground/excited plane.

    Builds the operator G with dA/dt = -i [G, A] from the scalar
    coefficients of the decomposition (requires the ground basis vector to
    be an eigenvector of H).  G equals the negative of the effective
    generator, -(H - U_p^dag H U_p); the equality is exercised by the test
    suite on random instances.
    """
    h = hamiltonian
    if dec.excited is None:
        return np.zeros(h.shape, dtype=complex)
    dim = h.shape[0]
    g = np.zeros(dim, dtype=complex)
    g[0] = 1.0
    e = dec.excited.amplitudes
    c, s = np.cos(dec.theta), np.sin(dec.theta)
    e_ground = float((g.conj() @ h @ g).real)
    e_excited = float((e.conj() @ h @ e).real)
    gap = e_excited - e_ground

    pg = np.outer(g, g.conj())
    pe = np.outer(e, e.conj())
    ge = np.outer(g, e.conj())  # |ground><excited|
    eg = np.outer(e, g.conj())

    out = (
        (2.0 * (1.0 - c) * e_excited - s**2 * gap) * pe
        + s**2 * gap * pg
        + s * (e_excited - c * gap) * (eg + ge)
        - (1.0 - c) * (h @ pe + pe @ h)
        - s * (ge @ h + h @ eg)
    )
    return (out + out.conj().T) / 2.0


def kron_generator(dyn) -> np.ndarray:
    """The N x N generator of a :class:`dynamics.EffectiveDynamics`, the
    Kronecker sum of its factors' generators."""
    out = None
    for f in dyn.factors:
        local = f.apply(np.eye(f.dimension))
        out = local if out is None else (
            np.kron(out, np.eye(f.dimension)) + np.kron(np.eye(len(out)), local)
        )
    return (out + out.conj().T) / 2.0


def propagator(h_eff: np.ndarray, t: float) -> np.ndarray:
    """U(t) = exp(-i H_eff t) of a dense generator, via its eigendecomposition."""
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if not np.any(h_eff):
        return np.eye(len(h_eff), dtype=complex)
    evals, evecs = np.linalg.eigh(h_eff)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
