"""Truncated multimode bosonic Hilbert space.

Basis indexing, state vectors and diagonal energies for a register of
harmonic modes, each truncated at a per-mode occupation cutoff; the dense
forms (density operators, the N x N Hamiltonian) are in :mod:`ergodyn.oracles`.
Internally hbar = 1, so every energy in the package is an angular frequency
(rad/s).  Basis order is row-major in the mode occupations with the global
vacuum |0...0> at flat index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModeSystem:
    """A register of bosonic modes with per-mode frequency and Fock cutoff.

    ``omega[i]`` is the angular frequency of mode i (> 0) and ``cutoff[i]``
    the largest occupation retained for that mode (>= 1), so the local
    dimension of mode i is ``cutoff[i] + 1``.
    """

    omega: tuple[float, ...]
    cutoff: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        object.__setattr__(self, "cutoff", tuple(int(c) for c in self.cutoff))
        if len(self.omega) == 0:
            raise ValueError("at least one mode is required")
        if len(self.omega) != len(self.cutoff):
            raise ValueError(
                f"omega has {len(self.omega)} entries but cutoff has {len(self.cutoff)}"
            )
        if any(w <= 0 for w in self.omega):
            raise ValueError(f"mode frequencies must be positive, got {self.omega}")
        if any(c < 1 for c in self.cutoff):
            raise ValueError(f"cutoffs must be >= 1, got {self.cutoff}")

    @property
    def modes(self) -> int:
        return len(self.omega)

    @property
    def dimension(self) -> int:
        dim = 1
        for c in self.cutoff:
            dim *= c + 1
        return dim


def flat_index(system: ModeSystem, occupations) -> int:
    """Flat index of an occupation tuple under row-major ordering."""
    occ = tuple(int(n) for n in occupations)
    if len(occ) != system.modes:
        raise ValueError(f"expected {system.modes} occupations, got {len(occ)}")
    idx = 0
    for n, c in zip(occ, system.cutoff):
        if not 0 <= n <= c:
            raise ValueError(f"occupation {n} outside [0, {c}]")
        idx = idx * (c + 1) + n
    return idx


class Ket:
    """Normalized complex state vector over the truncated basis."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        vec = np.asarray(amplitudes, dtype=complex).ravel()
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vec)
        if not 0.0 < norm < np.inf:
            # the squares left the float range: rescale by the largest part
            # first, so a state at any finite scale keeps its direction
            parts = vec.view(float)
            top = np.abs(parts).max(initial=0.0)
            if top == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec = (parts / top).view(complex)
            norm = np.linalg.norm(vec)
        self.amplitudes = vec / norm

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]


def superposition(system: ModeSystem, terms) -> Ket:
    """Normalized combination sum_occ amp * |occ> from {occupations: amplitude}."""
    terms = dict(terms)
    occ = np.array(list(terms) or np.empty((0, system.modes)), dtype=int)
    if occ.ndim != 2 or occ.shape[1] != system.modes:
        raise ValueError(f"expected {system.modes} occupations per term")
    vec = np.zeros(system.dimension, dtype=complex)
    # ValueError for an occupation outside [0, cutoff]
    flat = np.ravel_multi_index(occ.T, [c + 1 for c in system.cutoff])
    np.add.at(vec, flat, list(terms.values()))
    return Ket(vec)


def _occupation_sum(system: ModeSystem, weights) -> np.ndarray:
    """Entry sum_i n_i weights[i] for every basis vector, in flat-index order."""
    shape = tuple(c + 1 for c in system.cutoff)
    total = np.zeros(shape)
    for axis, w in enumerate(weights):
        local = np.arange(shape[axis]) * w
        total += local.reshape([-1 if a == axis else 1 for a in range(len(shape))])
    return total.ravel()


def occupation_counts(system: ModeSystem) -> np.ndarray:
    """Total occupation sum_i n_i of every basis vector, in flat-index order."""
    return _occupation_sum(system, (1.0,) * system.modes)


def free_energies(system: ModeSystem) -> np.ndarray:
    """Energy sum_i n_i omega_i of every basis vector, in flat-index order."""
    return _occupation_sum(system, system.omega)
