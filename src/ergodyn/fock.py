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

    ``omega[i]`` is the angular frequency of mode i and ``cutoff[i]`` the
    largest occupation retained for that mode, so the local dimension of
    mode i is ``cutoff[i] + 1``.  Nothing is checked here: the run plan
    (:func:`ergodyn.scenarios._assemble`) builds a register only from
    values it has checked, one float > 0 and one int >= 1 per mode.
    """

    omega: tuple[float, ...]
    cutoff: tuple[int, ...]

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
    """Flat index of an occupation tuple under row-major ordering
    (ValueError for a wrong length or an occupation outside [0, cutoff])."""
    shape = [c + 1 for c in system.cutoff]
    return int(np.ravel_multi_index(tuple(occupations), shape))


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
    vec = np.zeros(system.dimension, dtype=complex)
    # ValueError for a term of the wrong length or outside [0, cutoff]
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
