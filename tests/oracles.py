"""Reference routes that only the tests use.

Dense density-matrix measures, kept as oracles of the amplitude-based ones
in ``ergodyn.measures`` and for the mixed-state measure tests; the closed
4x4 dyad-vector system on the ground/excited plane, an oracle of the
exponential route; dense RK4 on the N x N generator, the oracle of the
subspace RK4 route, and the batched doubling of its power stack; a
first-order Dyson solver, the oracle of the perturbative interferometer
formula; the row-by-row ``'%.17g'`` CSV formatter, the oracle of the block
kernel in ``ergodyn.emit``, and the whole-CSV string built from that
kernel; and the channel-by-channel readout, the oracle of
``dynamics.read_channels``.
"""

from dataclasses import dataclass

import numpy as np

from ergodyn.emit import _csv_blocks
from ergodyn.fock import Ket, ModeSystem
from ergodyn.oracles import DensityOperator, kron_generator


def pure_density(ket: Ket) -> DensityOperator:
    v = ket.amplitudes
    return DensityOperator(np.outer(v, v.conj()))


def l1_coherence(rho: DensityOperator) -> float:
    """Sum of the absolute off-diagonal entries of the density matrix."""
    mat = np.abs(rho.matrix)
    return float(mat.sum() - np.trace(mat))


def partial_transpose(
    rho: DensityOperator, system: ModeSystem, modes=None
) -> np.ndarray:
    """Transpose the indices of ``modes`` (default: all but mode 0) of the
    density matrix."""
    dims = [c + 1 for c in system.cutoff]
    k = system.modes
    tensor = rho.matrix.reshape(dims + dims)
    axes = list(range(2 * k))
    for mode in range(1, k) if modes is None else modes:
        axes[mode], axes[k + mode] = axes[k + mode], axes[mode]
    return tensor.transpose(axes).reshape(rho.matrix.shape)


def negativity(rho: DensityOperator, system: ModeSystem, modes=None) -> float:
    """|sum of negative eigenvalues| of the partial transpose over ``modes``
    (default: mode 0 against the rest), which is Hermitian, so the spectrum
    comes from the symmetric eigensolver."""
    pt = partial_transpose(rho, system, modes)
    evals = np.linalg.eigvalsh(pt)
    return float(-evals[evals < 0.0].sum())


@dataclass(frozen=True)
class SubspaceGenerator:
    """Closed generator of the dyad vector on the ground/excited plane.

    The vector of operators is ordered (|g><g|, |g><e|, |e><g|, |e><e|) and
    obeys d/dt X = -i * prefactor * matrix @ X with ``prefactor`` the energy
    gap; ``matrix`` is real symmetric and vanishes at theta = 0.
    """

    matrix: np.ndarray
    prefactor: float

    ORDERING = ("gg", "ge", "eg", "ee")


def subspace_generator(theta: float, energy_gap: float) -> SubspaceGenerator:
    """4x4 dyad-vector generator for an excited component that is an eigenstate."""
    c, s = np.cos(theta), np.sin(theta)
    m = s * np.array(
        [
            [0.0, c, -c, 0.0],
            [c, 2.0 * s, 0.0, -c],
            [-c, 0.0, -2.0 * s, c],
            [0.0, -c, c, 0.0],
        ]
    )
    return SubspaceGenerator(matrix=m, prefactor=float(energy_gap))


def block_probabilities(gen: SubspaceGenerator, theta: float, t_grid):
    """Ground/excited occupation series from the dyad-vector route.

    Solves X(t) = exp(-i * gap * M * t) X(0) and returns the expectations of
    the two projector components in the initial state
    cos(theta)|g> + sin(theta)|e>.
    """
    c, s = np.cos(theta), np.sin(theta)
    x0 = np.array([c * c, c * s, s * c, s * s], dtype=complex)
    evals, evecs = np.linalg.eig(-1j * gen.prefactor * gen.matrix)
    coeff = np.linalg.solve(evecs, x0)
    t = np.asarray(t_grid, dtype=float)
    # X(t) = V exp(lambda t) V^-1 x0, evaluated on the whole grid at once
    xt = evecs @ (np.exp(np.outer(evals, t)) * coeff[:, None])
    p_ground = xt[0].real
    p_excited = xt[3].real
    return p_ground, p_excited


def dense_rk4_states(dyn, psi0: Ket, t_grid, substeps: int) -> np.ndarray:
    """Columns psi(t) from RK4 on the dense generator of ``dyn``.

    One step of size h is the degree-4 Taylor polynomial of x = -i h H_eff,
    formed in Horner form as an N x N matrix; its ``substeps``-th power
    moves the state from one grid time to the next.
    """
    t = np.asarray(t_grid, dtype=float)
    h = (t[1] - t[0]) / substeps
    x = -1j * h * kron_generator(dyn)
    eye = np.eye(dyn.energies.size)
    step = eye + x @ (eye + x @ (eye + x @ (eye + x / 4.0) / 3.0) / 2.0)
    power = np.linalg.matrix_power(step, substeps)
    states = np.empty((dyn.energies.size, t.size), dtype=complex)
    states[:, 0] = psi0.amplitudes
    for k in range(1, t.size):
        states[:, k] = power @ states[:, k - 1]
    return states


def batched_rk4_stack(power: np.ndarray, count: int) -> np.ndarray:
    """The powers power^0 ... power^(count-1), stacked by doubling with one
    batched product per doubling: the stack so far times the current power,
    appended by concatenation, which may compute rows past ``count``."""
    stack = np.eye(len(power))[None]
    while len(stack) < count:
        stack = np.concatenate([stack, stack @ power])
        power = power @ power
    return stack[:count]


def first_order_dyson(m0, m1, eps: float, t_grid) -> np.ndarray:
    """First-order perturbative propagator for d/dt X = -i (M0 + eps M1) X.

    Returns the stack W(t_k) = U0(t_k) (1 - i eps I(t_k)) with
    U0(t) = exp(-i M0 t) and I(t) the interaction integral of M1, evaluated
    by cumulative composite Simpson quadrature on the grid.  The grid must
    carry an even number of intervals.  The residual against the full
    exponential exp(-i (M0 + eps M1) t) is O(eps^2).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 3:
        raise ValueError("Dyson grid needs at least three points")
    if (t.size - 1) % 2 != 0:
        raise ValueError(
            f"Simpson quadrature needs an even interval count, got {t.size - 1}"
        )
    dt = np.diff(t)
    if np.abs(dt - dt[0]).max() > 1e-9 * abs(dt[0]):
        raise ValueError("Dyson grid must be uniform")
    h = float(dt[0])

    m0 = np.asarray(m0, dtype=complex)
    m1 = np.asarray(m1, dtype=complex)
    if m0.shape != m1.shape:
        raise ValueError(f"shape mismatch: M0 {m0.shape}, M1 {m1.shape}")

    # M0 need not be Hermitian in general; use a dense eigensolve for U0
    evals, evecs = np.linalg.eig(-1j * m0)
    vinv = np.linalg.inv(evecs)

    def u0(tt):
        return (evecs * np.exp(evals * tt)) @ vinv

    u0_stack = np.array([u0(tt) for tt in t])
    # u0 need not be unitary for non-normal m0; use the proper inverse
    u0_inv_stack = np.array([np.linalg.inv(u) for u in u0_stack])
    integrand = np.einsum("tij,jk,tkl->til", u0_inv_stack, m1, u0_stack)

    integral = np.zeros_like(integrand)
    for j in range(0, t.size - 2, 2):
        f0, f1, f2 = integrand[j], integrand[j + 1], integrand[j + 2]
        integral[j + 1] = integral[j] + (h / 12.0) * (5.0 * f0 + 8.0 * f1 - f2)
        integral[j + 2] = integral[j] + (h / 3.0) * (f0 + 4.0 * f1 + f2)

    eye = np.eye(m0.shape[0])
    out = np.einsum("tij,tjk->tik", u0_stack, eye - 1j * eps * integral)
    return out


def per_value_csv(series) -> str:
    """The series CSV with one ``'%.17g'`` per value, formatted row by row."""
    names = list(series.channels)
    table = np.column_stack([series.times] + [series.channels[n] for n in names])
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(["t"] + names)] + [row % tuple(r.tolist()) for r in table]
    return "\n".join(lines) + "\n"


def format_series_csv(series) -> str:
    """The series CSV as one string, joined from the block kernel's bytes."""
    return b"".join(_csv_blocks(series)).decode("utf-8")


def read_channels_per_channel(rows, states, psi0, channels, occupations=None):
    """The readout of :func:`ergodyn.dynamics.read_channels`, one search and
    one ``.sum(axis=0)`` per channel over the populations of every row."""
    pops = states.real**2 + states.imag**2
    out = {}
    for name, idx in channels.items():
        pos = np.minimum(np.searchsorted(rows, idx), rows.size - 1)
        out[name] = pops[pos[rows[pos] == idx]].sum(axis=0)
    if occupations is not None:
        out["n_expect"] = np.einsum(
            "it,it->t", states.conj(), occupations[rows, None] * states
        ).real
    # numpy's loop, as the readout sums rows, so the bits match at any BLAS
    # thread count
    out["p_survival"] = np.abs(np.einsum("i,it->t", psi0[rows].conj(), states)) ** 2
    return out
