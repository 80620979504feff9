"""Work-driven time evolution.

The generator of motion is the Hamiltonian minus its conjugation by the
passive-state rotation of the initial state,

    H_eff = H - U_p^dag H U_p,

and states follow d psi/dt = -i H_eff psi, observables dA/dt = i [H_eff, A]
(hbar = 1).  H is diagonal in the Fock basis and U_p differs from the
identity only on span{g, e} (ground and excited component), so H_eff has
rank at most three, with range in span{g, e, H e}.  The canonical route
keeps H as its diagonal energies and U_p as its angle and excited vector,
per block of modes the rotation factorizes over, and propagates on that
invariant subspace: an at most 3x3 Hermitian block per factor, so the
propagator stays unitary at machine precision for every t and no N x N
array is formed.  On the rows psi(t) can reach it is kept as B C(t), with B
fixed ([psi(0), P] for one factor, so C(t) is at most 4 x T, unless the
states on the rows are no larger), and one :func:`read_channels` reads
every route from B and C in O(N r + K T + sum |S| T).

Two independent numerical routes share that propagation core and differ
only in the flow of each block: the exact exponential from the block's
eigendecomposition, and classical RK4 stepping, whose step polynomial is
powered on the block with no eigensolver.  The scenarios cross-check them
against each other and against the closed forms.  The dense conjugation
H - U_p^dag H U_p with its eigendecomposition is the oracle of both; the
dense forms are in :mod:`ergodyn.oracles`, which no run imports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, RefinementError
from .fock import Ket
from .passive import decompose_against_ground

#: Hermiticity tolerance on the effective generator
HERMITICITY_TOL = 1e-12

#: relative bound on the subspace leakage ||H_eff Q - Q A|| and on the
#: motion ||H_eff (psi - Q Q^dag psi)|| of the part of psi left out of Q
LEAKAGE_TOL = 1e-12

#: a Gram-Schmidt remainder at or below this (relative to the energy scale)
#: adds no direction to the invariant subspace.  For an e on one energy
#: level the remainder is parallel to e and of order eps^2, so it must be
#: dropped; anything above keeps Q orthonormal to ~1e-16, and a larger
#: threshold would discard real energy spreads (the gravitational arm
#: detuning is 6e-15 at L = 100 m)
RANK_TOL = 1e-15

#: floor of a factor's energy scale: below it, eps times the scale is
#: subnormal, and tolerances relative to it would be finer than rounding
SMALLEST_SCALE = np.finfo(float).tiny / np.finfo(float).eps

#: default number of integrator steps per oscillation period
RK4_STEPS_PER_PERIOD = 2000

#: state-norm drift above which the RK4 step is rejected
RK4_DRIFT_TOL = 1e-6


def _hermitian_part(mat: np.ndarray, dim: int, scale: float) -> np.ndarray:
    """(A + A^dag) / 2 of a generator matrix A on a ``dim``-dimensional space.

    Raises ValueError when A is not Hermitian, or not traceless, as a
    conjugation difference must be.
    """
    dev = np.abs(mat - mat.conj().T).max()
    if not dev <= HERMITICITY_TOL * scale:
        raise ValueError(f"generator not Hermitian: max deviation {dev:g}")
    mat = (mat + mat.conj().T) / 2.0
    trace = abs(np.trace(mat))
    if not trace <= 1e-10 * dim * scale:
        raise ValueError(f"generator trace {trace:g} not zero")
    return mat


def _projected_block(apply, basis: np.ndarray, scale: float) -> np.ndarray:
    """A = Q^dag H_eff Q for an orthonormal basis Q of an invariant subspace.

    ``apply`` maps columns x to H_eff x.  Raises ValueError when A is not
    Hermitian or not traceless, or when H_eff moves Q out of its own span.
    """
    moved = apply(basis)
    block = _hermitian_part(basis.conj().T @ moved, basis.shape[0], scale)
    # in units of the scale, so that no square inside the norm overflows
    leak = np.linalg.norm((moved - basis @ block) / scale) * scale
    if not leak <= LEAKAGE_TOL * scale:
        raise ValueError(f"generator leaks out of its invariant subspace: {leak:g}")
    return block


class _Factor:
    """H_eff = h - U^dag h U of one block of consecutive modes, at rank <= 3.

    ``h`` is the block's diagonal energies and U the rotation of
    :func:`oracles.build_passive_unitary` for ``state``: U = 1 + D with
    D = [g, e] Dm [g, e]^dag, Dm = [[c - 1, s], [-s, c - 1]] for
    c, s = cos(theta), sin(theta).  So H_eff = -(D^dag h + h D + D^dag h D)
    = B M B^dag with B = [g, e, h e] and M a 3x3 matrix, and it is applied
    in that form.  ``basis`` is Q, an orthonormal basis of span(B) from
    Gram-Schmidt, and ``block`` the Hermitian A = Q^dag H_eff Q.
    """

    def __init__(self, energies, state: Ket):
        self.energies = np.asarray(energies, dtype=float)
        dim = self.energies.size
        if state.dimension != dim:
            raise ValueError(f"dimension mismatch: H {dim}, state {state.dimension}")
        dec = decompose_against_ground(state)
        self.cos, self.sin = c, s = np.cos(dec.theta), np.sin(dec.theta)
        # tolerances relative to the energies: hbar = 1, so scaling them by s
        # and time by 1/s changes no channel
        self.scale = max(np.abs(self.energies).max(), SMALLEST_SCALE)
        g = np.eye(dim, 1, dtype=complex)[:, 0]
        if dec.excited is None:
            # U = 1: the generator vanishes and the state is frozen
            self.excited = None
            self._b, self._m = g[:, None], np.zeros((1, 1))
            self.basis = self._b
        else:
            e = self.excited = dec.excited.amplitudes
            h0 = self.energies[0]
            he = self.energies * e
            e_exc = float((e.conj() @ he).real)
            # [g, e] = B pair, [h0 g, h e] = h [g, e] = B scaled, and
            # [g, e]^dag h [g, e] = diag (g^dag h e = 0 as e[0] = 0)
            pair = np.eye(3, 2)
            scaled = np.array([[h0, 0.0], [0.0, 0.0], [0.0, 1.0]])
            dm = np.array([[c - 1.0, s], [-s, c - 1.0]])
            diag = np.diag([h0, e_exc])
            self._b = np.stack([g, e, he], axis=1)
            self._m = -(
                pair @ dm.T @ scaled.T + scaled @ dm @ pair.T
                + pair @ dm.T @ diag @ dm @ pair.T
            )
            columns = [g, e]
            # he is orthogonal to g already; a second pass restores what
            # cancellation takes from the first
            rest = he
            for _ in range(2):
                rest = rest - e * (e.conj() @ rest)
            # in the power-of-two unit at or below the scale, which divides
            # exactly, so that no square inside the norm underflows
            unit = np.ldexp(1.0, np.frexp(self.scale)[1] - 1)
            rest = rest / unit
            norm = np.linalg.norm(rest)
            if norm * unit > RANK_TOL * self.scale:
                columns.append(rest / norm)
            self.basis = np.stack(columns, axis=1)
        self.block = _projected_block(self.apply, self.basis, self.scale)

    @property
    def dimension(self) -> int:
        return self.energies.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H_eff x for the columns of x (the block runs along axis -2, as in
        matmul), in O(dimension * columns)."""
        return self._b @ (self._m @ (self._b.conj().T @ x))


@dataclass(frozen=True, eq=False)
class EffectiveDynamics:
    """Factored generator bundle for one initial state.

    H_eff is the Kronecker sum of the per-factor generators of ``factors``
    (one factor per block of consecutive modes, in mode order), and
    ``energies`` the diagonal of H over the whole register.  The energy
    scalars are taken against the state recovered from the rotation itself
    (psi = U_p^dag |ground>): ``ground_energy`` = <0|H|0>,
    ``excited_energy`` the energy of the excited component, ``energy_gap``
    their difference.  ``mixing_sine`` is sin(theta) of the recovered
    decomposition and feeds the default integrator step.
    """

    factors: tuple
    energies: np.ndarray
    ground_energy: float
    excited_energy: float
    energy_gap: float
    mixing_sine: float


def effective_dynamics(factors) -> EffectiveDynamics:
    """Factored H_eff from ``(energies, state)`` pairs, one per block of modes.

    ``energies`` is the diagonal of the block's Hamiltonian and ``state``
    the block state whose passive rotation the generator conjugates by.
    One pair covering the whole register is the general case; a product
    rotation, one pair per mode, gives a Kronecker sum.  Costs O(N).
    """
    factors = tuple(_Factor(energies, state) for energies, state in factors)
    energies = np.zeros(1)
    recovered = np.ones(1, dtype=complex)
    for f in factors:
        energies = np.add.outer(energies, f.energies).ravel()
        local = np.zeros(f.dimension, dtype=complex)
        if f.excited is not None:
            local += f.sin * f.excited
        local[0] = f.cos
        recovered = np.multiply.outer(recovered, local).ravel()
    e_ground = float(energies[0])
    cos_theta = float(np.clip(abs(recovered[0]), 0.0, 1.0))
    sin_theta = float(np.sqrt(max(1.0 - cos_theta**2, 0.0)))
    if sin_theta > 1e-12:
        excited = recovered.copy()
        excited[0] = 0.0
        excited = excited / np.linalg.norm(excited)
        e_excited = float((excited.conj() @ (energies * excited)).real)
    else:
        e_excited = e_ground
    return EffectiveDynamics(
        factors=factors,
        energies=energies,
        ground_energy=e_ground,
        excited_energy=e_excited,
        energy_gap=e_excited - e_ground,
        mixing_sine=sin_theta,
    )


# a dense reference, left here as perfbench's tracer test needs a name of this
# module in its dynamics.generator layer; it moves to oracles with ROADMAP item 1
def effective_hamiltonian(
    hamiltonian: np.ndarray, passive_unitary: np.ndarray
) -> np.ndarray:
    """Dense H_eff = H - U_p^dag H U_p (oracle of the factored generator)."""
    h, u = hamiltonian, passive_unitary
    if h.shape != u.shape:
        raise ValueError(f"dimension mismatch: H {h.shape}, U_p {u.shape}")
    return _hermitian_part(
        h - u.conj().T @ h @ u, h.shape[0], max(np.abs(h).max(), 1.0)
    )


def _exponential_flow(f: _Factor, t: np.ndarray):
    """Exact flow of a factor's block: in the eigenbasis P = Q V of the
    block, exp(-i L t) - 1, one phase per column of P and time."""
    evals, evecs = np.linalg.eigh(f.block)
    return f.basis @ evecs, np.expm1(-1j * np.outer(evals, t))


def _rk4_flow(f: _Factor, t: np.ndarray, h: float, substeps: int):
    """RK4 flow of a factor's block in the basis Q: S^k - 1 at the k-th grid
    time, for S the ``substeps``-th power of one step, the degree-4 Taylor
    polynomial of x = -i h A.  The powers S^k are stacked by doubling; a
    rounded S whose powers overflow raises :class:`RefinementError`."""
    x = -1j * h * f.block
    eye = np.eye(len(x))
    step = eye + x @ (eye + x @ (eye + x @ (eye + x / 4.0) / 3.0) / 2.0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            power = np.linalg.matrix_power(step, substeps)
            stack = eye[None]
            while len(stack) < t.size:
                stack = np.concatenate([stack, stack @ power])
                power = power @ power
    except FloatingPointError:
        raise RefinementError(
            f"RK4 step matrix overflows when powered to {substeps:.3g} substeps "
            "per sample; shorten t_max or choose engine exponential"
        ) from None
    return f.basis, stack[: t.size] - eye


def _reduced_states(
    dyn: EffectiveDynamics, psi0: np.ndarray, t_grid, block_flow=_exponential_flow
):
    """``(rows, basis, coeffs)``: psi(t) is ``basis @ coeffs`` at the t-th
    grid time (column t) on the sorted flat indices ``rows`` it can reach.

    Along the modes of each factor, psi(t) = psi + P F(t) P^dag psi, where
    ``block_flow(factor, t)`` gives the basis P of the factor's invariant
    subspace and F(t) + 1, the flow of its block: one phase per column of P
    and time when F is diagonal (an array of shape (columns, T)), otherwise
    one matrix per time (shape (T, columns, columns)).  So ``rows`` is the
    product over the factors of the local indices where P or the marginal
    of psi0 is nonzero.  The part of psi0 left out of P must be frozen,
    which one application of H_eff to the whole factor checks (ValueError
    otherwise).  One factor gives basis [psi0, P] and coeffs [1; F P^dag psi0]
    in O(N + T), or the states when there are no more rows than columns of
    that basis; several give the states on the rows (basis None, the
    identity), in O(rows T) per factor.
    """
    t = np.asarray(t_grid, dtype=float)
    dims = [f.dimension for f in dyn.factors]
    local = []
    for i, f in enumerate(dyn.factors):
        q = f.basis
        # axis 1 runs over this factor's block; axis 0 over the modes before it
        start = psi0.reshape(math.prod(dims[:i]), dims[i], -1)
        rest = start - q @ (q.conj().T @ start)
        moved = np.linalg.norm(f.apply(rest) / f.scale) * f.scale
        if not moved <= LEAKAGE_TOL * f.scale:
            raise ValueError(
                f"state part outside the invariant subspace moves: {moved:g}"
            )
        local.append(np.flatnonzero(np.any(q, axis=1) | np.any(start, axis=(0, 2))))
    grid = np.ix_(*local)
    rows = np.ravel_multi_index(grid, dims).ravel()
    if len(dims) == 1:
        p, flow = block_flow(dyn.factors[0], t)
        p = p[rows]
        c0 = p.conj().T @ psi0[rows]
        moved = flow * c0[:, None] if flow.ndim == 2 else (flow @ c0).T
        if rows.size <= 1 + p.shape[1]:
            # on no more rows than basis columns the states are the smaller form
            return rows, None, psi0[rows, None] + p @ moved
        basis = np.column_stack([psi0[rows], p])
        return rows, basis, np.vstack([np.ones(t.size), moved])
    states = np.repeat(psi0.reshape(dims)[grid].reshape(-1, 1), t.size, axis=1)
    for i, f in enumerate(dyn.factors):
        p, flow = block_flow(f, t)
        p = p[local[i]]
        view = states.reshape(math.prod(map(len, local[:i])), len(p), -1)
        coeffs = (p.conj().T @ view).reshape(len(view), p.shape[1], -1, t.size)
        if flow.ndim == 2:
            coeffs *= flow[:, None, :]
        else:
            coeffs = np.einsum("tij,ljkt->likt", flow, coeffs)
        view += p @ coeffs.reshape(len(view), p.shape[1], -1)
    return rows, None, states


#: entries of rows x times in one tile of the readout's temporaries
_TILE_ENTRIES = 1 << 14


def _tiles(count: int, steps: int) -> list:
    """Slices of ``count`` rows, each over all ``steps`` times: tiles of at
    most _TILE_ENTRIES entries, but of two rows or more when ``count`` is.
    A BLAS product over several rows and every time rounds each entry the
    same way in any tile; one over a single row (a gemv, which OpenBLAS
    splits across threads) or over part of the times rounds differently."""
    size = max(2, _TILE_ENTRIES // steps - 1)
    # a last tile of one row joins the tile before it
    starts = list(range(0, count - (count > 1), size))
    return list(map(slice, starts, [*starts[1:], count]))


def _row_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^dag b, summed over axis 0 (the rows) of a and b, by numpy's own
    loop: no BLAS, so the sum rounds the same at any thread count."""
    return np.einsum(
        a.conj(), [0, *range(1, a.ndim)], b, [0, *range(a.ndim, a.ndim + b.ndim - 1)]
    )


def _expectation(basis, coeffs, weights) -> np.ndarray:
    """Re coeffs^dag (basis^dag diag(weights) basis) coeffs, one per time:
    the expectation of diag(weights) on the rows, in O(rows K^2 + K^2 T)."""
    weighted = weights[:, None] * coeffs if basis is None else (
        # the K x K matrix is Hermitian, so its ^dag is itself
        _row_sum(_row_sum(basis, weights[:, None] * basis), coeffs))
    return np.einsum("it,it->t", coeffs.conj(), weighted).real


def read_channels(rows, basis, coeffs, psi0, channels: dict, occupations=None) -> dict:
    """Channel series and ``p_survival`` of psi(t), for every route.

    psi(t) is zero off the sorted flat Fock indices ``rows`` and ``basis @
    coeffs`` on them (rows x K, None for the identity, times K x T).
    ``channels`` maps a name to a list or array of flat Fock indices; the
    channel is the summed population of those basis vectors, rebuilt by a
    BLAS product per tile of the rows hit (:func:`_tiles`), so that the
    table is the one C x T array and a tile the largest temporary.
    ``n_expect`` (from the per-index ``occupations``, when given) and
    ``p_survival`` = |psi0^dag psi(t)|^2 are summed over rows and K by
    :func:`_row_sum`, the same at any BLAS thread count.  One search
    matches every index: O(C + sum |S| + rows K^2 + hits K T).
    """
    table = np.zeros((len(channels), coeffs.shape[1]))
    if channels:
        idx = np.concatenate(list(channels.values()))
        owner = np.repeat(np.arange(len(channels)), list(map(len, channels.values())))
        pos = np.minimum(np.searchsorted(rows, idx), rows.size - 1)
        owner, pos = owner[rows[pos] == idx], pos[rows[pos] == idx]
        # first hits are copied, later ones added in index order, as .sum does
        first = np.searchsorted(owner, owner) == np.arange(owner.size)
        for part in _tiles(pos.size, coeffs.shape[1]):
            amps = coeffs[pos[part]] if basis is None else basis[pos[part]] @ coeffs
            # squared in place, and each tile freed before the next is made
            pops = amps.real**2
            pops += amps.imag**2
            del amps
            new, hit = first[part], owner[part]
            table[hit[new]] = pops[new]
            if not new.all():
                np.add.at(table, hit[~new], pops[~new])
    out = dict(zip(channels, table))
    if occupations is not None:
        out["n_expect"] = _expectation(basis, coeffs, occupations[rows])
    overlap = psi0[rows] if basis is None else _row_sum(basis, psi0[rows])
    out["p_survival"] = np.abs(_row_sum(overlap, coeffs)) ** 2
    return out


def default_rk4_step(dyn: EffectiveDynamics, omega_max: float = 0.0) -> float:
    """Default integrator step: one 2000th of the fastest oscillation period."""
    omega_osc = max(abs(dyn.mixing_sine * dyn.energy_gap), float(omega_max))
    if omega_osc <= 0.0:
        # static generator: any step works; normalize on the largest block entry
        scale = max(np.abs(f.block).max() for f in dyn.factors)
        omega_osc = scale if scale > 0 else 1.0
    return (2.0 * np.pi / omega_osc) / RK4_STEPS_PER_PERIOD


def rk4_expectation_series(
    dyn: EffectiveDynamics,
    psi0: Ket,
    channels: dict,
    t_grid,
    occupations=None,
    substeps: int | None = None,
    omega_max: float = 0.0,
) -> dict[str, np.ndarray]:
    """RK4 route for the readout of :func:`read_channels`.

    Classical RK4 on d psi/dt = -i H_eff psi.  For this linear equation one
    step of size h is exactly the degree-4 Taylor polynomial of
    x = -i h H_eff, which is the identity outside the invariant subspaces,
    so each factor's block is stepped on its own (:func:`_rk4_flow`) by the
    propagation core of the exponential route.  No eigendecomposition is
    used, so the route is independent of the exponential propagator.  The
    exact flow conserves the state norm; a drift beyond RK4_DRIFT_TOL at
    any grid time aborts with :class:`RefinementError`, and so does a step
    matrix that overflows when powered to the substep count.  ``psi0`` is
    the state at t = 0, as for the exponential route, and the steps start
    there, so the grid must begin at 0 (:class:`GridError` otherwise).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise GridError("time grid must contain at least two points")
    if t[0] != 0.0:
        raise GridError(f"RK4 grid must start at t = 0, got t[0] = {t[0]:g}")
    dt = np.diff(t)
    if np.abs(dt - dt[0]).max() > 1e-9 * abs(dt[0]):
        raise GridError("time grid must be uniform")
    if substeps is None:
        substeps = max(1, int(np.ceil(dt[0] / default_rk4_step(dyn, omega_max))))
    if substeps < 1:
        raise GridError(f"substeps must be >= 1, got {substeps}")
    h = float(dt[0]) / substeps
    flow = functools.partial(_rk4_flow, h=h, substeps=substeps)
    rows, basis, coeffs = _reduced_states(dyn, psi0.amplitudes, t, flow)
    drift = np.abs(np.sqrt(_expectation(basis, coeffs, np.ones(rows.size))) - 1.0)
    # written so that a NaN drift fails too
    bad = np.flatnonzero(~(drift <= RK4_DRIFT_TOL))
    if bad.size:
        k = bad[0]
        raise RefinementError(
            f"norm drift {drift[k]:g} at t={t[k]:g}; reduce the step "
            f"(current h={h:g})"
        )
    return read_channels(rows, basis, coeffs, psi0.amplitudes, channels, occupations)


def _owner(arrays: list):
    """The array that all of ``arrays`` view, such as a route's table for its
    rows, when it owns no more entries than they hold: a check of its
    entries is then a check of theirs, in one pass with no copy.  Else None.
    """
    owner = arrays[0].base if arrays else None
    if (
        owner is not None
        and owner.flags.owndata
        and owner.size <= len(arrays) * arrays[0].size
        and all([a.base is owner and a.flags.aligned for a in arrays])
    ):
        return owner
    return None


def _inside_unit_interval(values: np.ndarray) -> bool:
    """Whether every entry lies in [0, 1] within 1e-9 (False on a NaN)."""
    return bool(values.min() >= -1e-9 and values.max() <= 1.0 + 1e-9)


class TimeSeries:
    """Uniform time grid with named real channels.

    ``probability_channels`` are bounded to [0, 1] within 1e-9;
    ``partitions`` lists channel groups that must sum to one at every time.
    Violations raise ValueError at construction, naming the first failing
    channel in partition order, then in column order.  The routes return
    plain dicts; a run builds one series, from its primary route, so every
    check runs once per run.  The channels are kept and checked where they
    are: rows of one table are checked in one pass over it (:func:`_owner`),
    and a partition is summed channel by channel into one array, so no copy
    of the series is made.
    """

    def __init__(self, times, channels, probability_channels=(), partitions=()):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("a time series needs at least two samples")
        steps = np.diff(self.times)
        if np.abs(steps - steps[0]).max() > 1e-9 * max(abs(steps[0]), 1e-300):
            raise ValueError("time grid must be uniform")
        self.channels = {
            name: np.asarray(values, dtype=float) for name, values in channels.items()
        }
        shape = self.times.shape
        for name, arr in self.channels.items():
            if arr.shape != shape:
                raise ValueError(f"channel {name!r} has {arr.shape}, grid has {shape}")
        self.probability_channels = frozenset(probability_channels)
        self.partitions = tuple(tuple(p) for p in partitions)
        self._validate()

    def _validate(self):
        # each partition's probability channels in group order, then the
        # other probability channels in column order; every check fails on
        # a NaN, and the range checks come first
        probability = self.probability_channels
        rest = probability.difference(*self.partitions)
        if not rest <= self.channels.keys():
            raise KeyError(min(rest - self.channels.keys()))
        if len(rest) > 1:
            rest = [n for n in self.channels if n in rest]
        deviations = []
        for group in self.partitions:
            # channels added one after another, as sum() over the group does
            total = np.zeros(self.times.size)
            for name in group:
                total += self.channels[name]
            deviations.append(np.abs(total - 1.0).max())
        for names, dev in zip((*self.partitions, rest), (*deviations, None)):
            if not probability.issuperset(names):
                names, dev = [n for n in names if n in probability], None
            arrays = [self.channels[n] for n in names]
            owner = _owner(arrays)
            if owner is not None and (
                # with no entry below 0, each channel is at most the sum of
                # its group, which is at most 1 + 1e-9
                dev is not None and dev <= 1e-9 and owner.min() >= 0.0
                or _inside_unit_interval(owner)
            ):
                continue
            for name, values in zip(names, arrays):
                if not _inside_unit_interval(values):
                    raise ValueError(
                        f"probability channel {name!r} leaves [0,1]: "
                        f"range [{values.min():g}, {values.max():g}]"
                    )
        for group, dev in zip(self.partitions, deviations):
            if not dev <= 1e-9:
                raise ValueError(
                    f"partition {group} sums to 1 +/- {dev:g} (> 1e-9)"
                )

    def column_names(self):
        return list(self.channels)


def evolve_probabilities(
    dyn: EffectiveDynamics, psi0: Ket, channels: dict, t_grid, occupations=None
) -> dict[str, np.ndarray]:
    """Exponential route for the readout of :func:`read_channels`: the dict of
    :func:`rk4_expectation_series` (the channels, ``n_expect`` when the
    per-index ``occupations`` are given, and ``p_survival``) for U(t)|psi0>
    on the reduced blocks.  The caller's :class:`TimeSeries` checks it."""
    reduced = _reduced_states(dyn, psi0.amplitudes, t_grid)
    return read_channels(*reduced, psi0.amplitudes, channels, occupations)


def survival_probability(dyn: EffectiveDynamics, psi0: Ket, t_grid) -> dict:
    """``{"p_survival": |<psi0|U(t)|psi0>|^2}`` by the exponential route."""
    return evolve_probabilities(dyn, psi0, {}, t_grid)
